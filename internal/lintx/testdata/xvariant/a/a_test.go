package a_test

import (
	"testing"

	"xvariant/b"
)

// TestN calls export_test.go's method on a value typed by b, which
// compiles only if b is built against a's test variant.
func TestN(t *testing.T) {
	if b.New().N() != 0 {
		t.Fatal("zero T has a nonzero field")
	}
}
