// Fixture: the service spine logs through its configured slog.Logger;
// raw stdout/stderr printers lose the span ids and the JSON structure.
package studysvc

import (
	"fmt"
	"log"
	"os"
)

func handle() {
	fmt.Println("request started")     // want "fmt.Println in internal/studysvc"
	fmt.Printf("run %s done\n", "r-1") // want "fmt.Printf in internal/studysvc"
	log.Printf("shedding %d", 3)       // want "log.Printf in internal/studysvc"
	log.Fatalf("pool wedged")          // want "log.Fatalf in internal/studysvc"
	fmt.Fprintf(os.Stderr, "explicit writer is fine\n")
	_ = fmt.Sprintf("building a value is fine: %d", 1)
}

// sanctioned shows the documented escape hatch.
func sanctioned() {
	//lint:ignore logfield fixture demonstrates a documented pre-logger boot message
	fmt.Println("boot")
}
