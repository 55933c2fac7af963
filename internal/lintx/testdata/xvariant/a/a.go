// Package a is the package under test.
package a

// T carries a field only the tests can read.
type T struct{ n int }
