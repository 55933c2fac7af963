package forum

// Caps reports the capacities of the thread and post slices, so the
// external reserve test can hold a loader's estimate to the counts it
// ends with.
func (s *Store) Caps() (threads, posts int) { return cap(s.threads), cap(s.posts) }
