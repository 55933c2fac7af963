package analyzers

import (
	"testing"

	"repro/internal/lintx/lintest"
)

// internal/studysvc pins the raw-printer ban, the explicit-writer and
// Sprintf escapes, the test-file exemption and the suppression
// directive; internal/tracex pins that the tracer is in scope;
// cmd/ewserve pins that the rule reaches the binary and bans slog's
// package-level functions but not a configured logger's methods; plain
// pins that packages outside the spine are untouched.
func TestLogField(t *testing.T) {
	lintest.Run(t, "testdata", LogField, "internal/studysvc", "internal/tracex", "cmd/ewserve", "plain")
}
