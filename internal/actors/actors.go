// Package actors implements §6 of the study: the overview of the ~73k
// actors discussing eWhoring (Table 8, Figure 4), the five rank-based
// key-actor selections with their intersections and group aggregates
// (Tables 9 and 10), and the interest-evolution analysis before /
// during / after eWhoring (Figure 5).
package actors

import (
	"slices"
	"sort"
	"time"

	"repro/internal/forum"
)

// Profile aggregates one actor's activity relative to eWhoring.
type Profile struct {
	Actor forum.ActorID
	// EwPosts counts posts inside eWhoring-related threads.
	EwPosts int
	// TotalPosts counts all posts anywhere on the forum.
	TotalPosts int
	// FirstEw/LastEw bound the actor's eWhoring posting.
	FirstEw, LastEw time.Time
	// FirstAny/LastAny bound all activity.
	FirstAny, LastAny time.Time
}

// PctEwhoring returns the percentage of the actor's posts that are
// eWhoring-related.
func (p *Profile) PctEwhoring() float64 {
	if p.TotalPosts == 0 {
		return 0
	}
	return 100 * float64(p.EwPosts) / float64(p.TotalPosts)
}

// DaysBefore returns days of forum activity before the first
// eWhoring post.
func (p *Profile) DaysBefore() float64 {
	return p.FirstEw.Sub(p.FirstAny).Hours() / 24
}

// DaysAfter returns days of forum activity after the last eWhoring
// post.
func (p *Profile) DaysAfter() float64 {
	return p.LastAny.Sub(p.LastEw).Hours() / 24
}

// BuildProfiles computes a profile for every actor with at least one
// post in the given eWhoring threads.
func BuildProfiles(store *forum.Store, ewThreads []forum.ThreadID) map[forum.ActorID]*Profile {
	profiles := make(map[forum.ActorID]*Profile)
	for _, tid := range ewThreads {
		for post := range store.PostsInThread(tid) {
			p, ok := profiles[post.Author]
			if !ok {
				p = &Profile{Actor: post.Author, FirstEw: post.Created, LastEw: post.Created}
				profiles[post.Author] = p
			}
			p.EwPosts++
			if post.Created.Before(p.FirstEw) {
				p.FirstEw = post.Created
			}
			if post.Created.After(p.LastEw) {
				p.LastEw = post.Created
			}
		}
	}
	for _, p := range profiles {
		p.FirstAny, p.LastAny, p.TotalPosts = store.ActivitySpan(p.Actor)
	}
	return profiles
}

// BucketRow is one row of Table 8: actors grouped by eWhoring post
// count. AvgPosts is the mean number of eWhoring posts per actor (the
// paper's "Avg. posts" column: 626k posts over 73k actors ≈ 8.8).
type BucketRow struct {
	MinPosts      int
	Actors        int
	AvgPosts      float64 // mean eWhoring posts per actor
	PctEwhoring   float64 // mean percentage of posts in eWhoring
	AvgDaysBefore float64
	AvgDaysAfter  float64
}

// Table8Thresholds are the paper's bucket minima.
var Table8Thresholds = []int{1, 10, 50, 100, 200, 500, 1000}

// Buckets computes Table 8 over profiles in actor-ID order (see
// SortProfiles). Each row sums its actors in that order, so the float
// means are reproducible.
func Buckets(ordered []*Profile, thresholds []int) []BucketRow {
	if len(thresholds) == 0 {
		thresholds = Table8Thresholds
	}
	rows := make([]BucketRow, len(thresholds))
	for i, min := range thresholds {
		var n int
		var posts, pct, before, after float64
		for _, p := range ordered {
			if p.EwPosts < min {
				continue
			}
			n++
			posts += float64(p.EwPosts)
			pct += p.PctEwhoring()
			before += p.DaysBefore()
			after += p.DaysAfter()
		}
		row := BucketRow{MinPosts: min, Actors: n}
		if n > 0 {
			row.AvgPosts = posts / float64(n)
			row.PctEwhoring = pct / float64(n)
			row.AvgDaysBefore = before / float64(n)
			row.AvgDaysAfter = after / float64(n)
		}
		rows[i] = row
	}
	return rows
}

// Samples holds the series behind one Figure 4 bucket: one value per
// actor meeting the bucket's minimum eWhoring post count, each series
// sorted ascending. A sorted series is its own empirical CDF, so
// Figure 4 reads its quantiles with stats.QuantileSorted. The series
// are not aligned per actor: index i of Posts and of Pct may belong
// to different actors.
type Samples struct {
	Posts      []float64
	Pct        []float64
	DaysBefore []float64
	DaysAfter  []float64
}

// CollectSamples gathers the Figure 4 series of every threshold (nil
// means Table8Thresholds) from profiles in actor-ID order, and sorts
// each series once.
func CollectSamples(ordered []*Profile, thresholds []int) map[int]Samples {
	if len(thresholds) == 0 {
		thresholds = Table8Thresholds
	}
	out := make(map[int]Samples, len(thresholds))
	for _, min := range thresholds {
		var s Samples
		for _, p := range ordered {
			if p.EwPosts < min {
				continue
			}
			s.Posts = append(s.Posts, float64(p.EwPosts))
			s.Pct = append(s.Pct, p.PctEwhoring())
			s.DaysBefore = append(s.DaysBefore, p.DaysBefore())
			s.DaysAfter = append(s.DaysAfter, p.DaysAfter())
		}
		for _, xs := range [][]float64{s.Posts, s.Pct, s.DaysBefore, s.DaysAfter} {
			slices.Sort(xs)
		}
		out[min] = s
	}
	return out
}

// SortProfiles returns the profiles in actor-ID order. Folds over
// profiles must not iterate the map directly: float accumulation is
// order-sensitive, and determinism in the seed is a study invariant.
// The §6 overview sorts once and hands the slice to Buckets and
// CollectSamples.
func SortProfiles(profiles map[forum.ActorID]*Profile) []*Profile {
	out := make([]*Profile, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Actor < out[j].Actor })
	return out
}

// topK returns the k highest-scoring actors (score desc, ID asc).
func topK(scores map[forum.ActorID]float64, k int) []forum.ActorID {
	type pair struct {
		a forum.ActorID
		v float64
	}
	pairs := make([]pair, 0, len(scores))
	for a, v := range scores {
		pairs = append(pairs, pair{a, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].a < pairs[j].a
	})
	if k > len(pairs) {
		k = len(pairs)
	}
	out := make([]forum.ActorID, k)
	for i := range out {
		out[i] = pairs[i].a
	}
	return out
}
