// Fixture: ewserve is the operational binary — its output is the ops
// log, so it must be JSON lines through the slog.Logger it configures,
// not bare prints or slog's process default logger.
package main

import (
	"fmt"
	"log"
	"log/slog"
	"os"
)

func main() {
	fmt.Println("listening") // want "fmt.Println in cmd/ewserve"
	log.Println("ready")     // want "log.Println in cmd/ewserve"
	fmt.Fprintln(os.Stderr, "explicit writer is fine")

	lg := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	lg.Info("configured logger is fine", "server", "study")
	slog.Info("default logger", "server", "study") // want "slog.Info in cmd/ewserve"
	slog.Error("server failed", "err", "boom")     // want "slog.Error in cmd/ewserve"
}
