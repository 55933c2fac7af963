// Package b depends on a, so a's external tests reach a through b as
// well as directly.
package b

import "xvariant/a"

// New returns a zero a.T.
func New() a.T { return a.T{} }
