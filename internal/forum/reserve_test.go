package forum_test

import (
	"testing"

	"repro/internal/synth"
)

// TestSynthReserveFitsWorld holds synth's forum reservation to the
// world it generates: at each scale the reserved thread and post
// capacity must cover the final counts (no doubling copies while the
// world loads) without overshooting them by more than a quarter.
func TestSynthReserveFitsWorld(t *testing.T) {
	for _, scale := range []float64{0.01, 0.05, 0.2} {
		w := synth.Generate(synth.Config{Seed: 2019, Scale: scale})
		threads, posts := caps(w.Store)
		for _, c := range []struct {
			what       string
			cap, count int
		}{
			{"threads", threads, w.Store.NumThreads()},
			{"posts", posts, w.Store.NumPosts()},
		} {
			ratio := float64(c.cap) / float64(c.count)
			if ratio < 1 || ratio > 1.25 {
				t.Errorf("scale %g: %s capacity %d is %.3f× the %d made, want [1, 1.25]",
					scale, c.what, c.cap, ratio, c.count)
			}
		}
	}
}

// caps reads a store's capacities through export_test.go's Caps. ewlint
// type-checks synth against forum without its test files, so the
// method is reached through an interface, not the store's static type.
func caps(store any) (threads, posts int) {
	return store.(interface{ Caps() (int, int) }).Caps()
}
