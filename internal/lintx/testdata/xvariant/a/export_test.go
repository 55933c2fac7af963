package a

// N exposes T's field to the external tests.
func (t T) N() int { return t.n }
