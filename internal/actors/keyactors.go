package actors

import (
	"sort"
	"time"

	"repro/internal/forum"
	"repro/internal/socialgraph"
)

// Group labels the five key-actor selection criteria of §6.3.
type Group string

// Key-actor groups, with the paper's shorthand.
const (
	GroupPacks     Group = "Packs" // actors offering ≥ MinPacks packs
	GroupEarnings  Group = "$"     // top earners by reported proofs
	GroupPopular   Group = "Hi"    // top H-index
	GroupExchange  Group = "Ce"    // top currency-exchange movers
	GroupInfluence Group = "I"     // top eigenvector centrality
)

// Groups lists all groups in presentation order.
var Groups = []Group{GroupPopular, GroupInfluence, GroupEarnings, GroupExchange, GroupPacks}

// KeyActorInputs carries the per-criterion scores.
type KeyActorInputs struct {
	// PacksShared: packs offered per actor.
	PacksShared map[forum.ActorID]int
	// EarningsUSD: total reported earnings per actor.
	EarningsUSD map[forum.ActorID]float64
	// Popularity: reply-based indices per thread starter.
	Popularity map[forum.ActorID]socialgraph.Popularity
	// Centrality: eigenvector centrality per actor.
	Centrality map[forum.ActorID]float64
	// ExchangeScore: the paper's currency-exchange score (share of
	// threads in Currency Exchange since starting eWhoring, scaled by
	// total threads).
	ExchangeScore map[forum.ActorID]float64
	// ExchangeThreads: raw CE thread count per actor (Table 10).
	ExchangeThreads map[forum.ActorID]int
}

// SelectionConfig sizes the selections. The paper takes the top 50 of
// each ranked criterion and every actor sharing at least 6 packs.
type SelectionConfig struct {
	TopK     int
	MinPacks int
}

// DefaultSelection returns the paper's parameters.
func DefaultSelection() SelectionConfig { return SelectionConfig{TopK: 50, MinPacks: 6} }

// KeyActors is the outcome of the five selections.
type KeyActors struct {
	Members map[Group][]forum.ActorID
	// All is the union, sorted by ID.
	All []forum.ActorID
}

// SelectKeyActors runs the five rank-based selections.
func SelectKeyActors(in KeyActorInputs, cfg SelectionConfig) KeyActors {
	if cfg.TopK <= 0 {
		cfg.TopK = 50
	}
	if cfg.MinPacks <= 0 {
		cfg.MinPacks = 6
	}
	ka := KeyActors{Members: make(map[Group][]forum.ActorID)}

	packScores := make(map[forum.ActorID]float64)
	for a, n := range in.PacksShared {
		if n >= cfg.MinPacks {
			packScores[a] = float64(n)
		}
	}
	ka.Members[GroupPacks] = topK(packScores, len(packScores))

	ka.Members[GroupEarnings] = topK(in.EarningsUSD, cfg.TopK)

	hScores := make(map[forum.ActorID]float64)
	for a, p := range in.Popularity {
		hScores[a] = float64(p.H)
	}
	ka.Members[GroupPopular] = topK(hScores, cfg.TopK)

	ka.Members[GroupExchange] = topK(in.ExchangeScore, cfg.TopK)
	ka.Members[GroupInfluence] = topK(in.Centrality, cfg.TopK)

	seen := make(map[forum.ActorID]struct{})
	for _, g := range Groups {
		for _, a := range ka.Members[g] {
			seen[a] = struct{}{}
		}
	}
	for a := range seen {
		ka.All = append(ka.All, a)
	}
	sort.Slice(ka.All, func(i, j int) bool { return ka.All[i] < ka.All[j] })
	return ka
}

// Intersections computes Table 9: for each pair of groups the number
// of shared members; the diagonal holds members unique to that group.
func (ka KeyActors) Intersections() map[Group]map[Group]int {
	sets := make(map[Group]map[forum.ActorID]struct{})
	for _, g := range Groups {
		s := make(map[forum.ActorID]struct{})
		for _, a := range ka.Members[g] {
			s[a] = struct{}{}
		}
		sets[g] = s
	}
	out := make(map[Group]map[Group]int)
	for _, g := range Groups {
		out[g] = make(map[Group]int)
		for _, h := range Groups {
			if g == h {
				continue
			}
			n := 0
			for a := range sets[g] {
				if _, ok := sets[h][a]; ok {
					n++
				}
			}
			out[g][h] = n
		}
		// Diagonal: unique to g.
		unique := 0
		for a := range sets[g] {
			alone := true
			for _, h := range Groups {
				if h == g {
					continue
				}
				if _, ok := sets[h][a]; ok {
					alone = false
					break
				}
			}
			if alone {
				unique++
			}
		}
		out[g][g] = unique
	}
	return out
}

// GroupStats is one row of Table 10: group means of the actors'
// characteristics.
type GroupStats struct {
	Group         Group
	Members       int
	AvgPosts      float64
	PctEwhoring   float64
	AvgDaysBefore float64
	AvgAmountUSD  float64
	AvgH          float64
	AvgI10        float64
	AvgI100       float64
	AvgPacks      float64
	AvgExchange   float64
}

// GroupCharacteristics computes Table 10 (one row per group plus the
// ALL row over the union).
func (ka KeyActors) GroupCharacteristics(profiles map[forum.ActorID]*Profile, in KeyActorInputs) []GroupStats {
	row := func(g Group, members []forum.ActorID) GroupStats {
		gs := GroupStats{Group: g, Members: len(members)}
		if len(members) == 0 {
			return gs
		}
		for _, a := range members {
			if p := profiles[a]; p != nil {
				gs.AvgPosts += float64(p.EwPosts)
				gs.PctEwhoring += p.PctEwhoring()
				gs.AvgDaysBefore += p.DaysBefore()
			}
			gs.AvgAmountUSD += in.EarningsUSD[a]
			pop := in.Popularity[a]
			gs.AvgH += float64(pop.H)
			gs.AvgI10 += float64(pop.I10)
			gs.AvgI100 += float64(pop.I100)
			gs.AvgPacks += float64(in.PacksShared[a])
			gs.AvgExchange += float64(in.ExchangeThreads[a])
		}
		n := float64(len(members))
		gs.AvgPosts /= n
		gs.PctEwhoring /= n
		gs.AvgDaysBefore /= n
		gs.AvgAmountUSD /= n
		gs.AvgH /= n
		gs.AvgI10 /= n
		gs.AvgI100 /= n
		gs.AvgPacks /= n
		gs.AvgExchange /= n
		return gs
	}
	out := make([]GroupStats, 0, len(Groups)+1)
	for _, g := range Groups {
		out = append(out, row(g, ka.Members[g]))
	}
	out = append(out, row(Group("ALL"), ka.All))
	return out
}

// ExchangeScores computes the paper's currency-exchange ranking: "We
// count the number of threads before and after their first eWhoring
// post. We calculate the percentage of threads made in Currency
// Exchange since they started eWhoring, and multiply this by the
// total amount of threads."
func ExchangeScores(store *forum.Store, ceBoard forum.BoardID, profiles map[forum.ActorID]*Profile) (scores map[forum.ActorID]float64, counts map[forum.ActorID]int) {
	scores = make(map[forum.ActorID]float64)
	counts = make(map[forum.ActorID]int)
	for a, p := range profiles {
		threads := store.ThreadsByActor(a)
		if len(threads) == 0 {
			continue
		}
		total := len(threads)
		ceAfter, after := 0, 0
		for _, tid := range threads {
			th := store.Thread(tid)
			if !th.Created.Before(p.FirstEw) {
				after++
				if th.Board == ceBoard {
					ceAfter++
					counts[a]++
				}
			} else if th.Board == ceBoard {
				counts[a]++
			}
		}
		if after == 0 || ceAfter == 0 {
			continue
		}
		pct := float64(ceAfter) / float64(after)
		scores[a] = pct * float64(total)
	}
	return scores, counts
}

// InterestPhase labels the Figure 5 phases.
type InterestPhase int

// Phases.
const (
	PhaseBefore InterestPhase = iota
	PhaseDuring
	PhaseAfter
)

// String names the phase.
func (p InterestPhase) String() string {
	switch p {
	case PhaseBefore:
		return "before"
	case PhaseDuring:
		return "during"
	default:
		return "after"
	}
}

// InterestProfile is the percentage of posts per board category in
// one phase.
type InterestProfile map[string]float64

// Interests computes Figure 5: the key actors' posts elsewhere on the
// forum (outside the eWhoring thread set and excluding the Lounge
// category) split into before / during / after their eWhoring span,
// as percentage per board category.
func Interests(store *forum.Store, key []forum.ActorID, profiles map[forum.ActorID]*Profile,
	ewThreads *forum.ThreadSet, excludeCategory string) map[InterestPhase]InterestProfile {

	counts := map[InterestPhase]map[string]int{
		PhaseBefore: {}, PhaseDuring: {}, PhaseAfter: {},
	}
	totals := map[InterestPhase]int{}
	for _, a := range key {
		p := profiles[a]
		if p == nil {
			continue
		}
		for post := range store.PostsByActor(a) {
			if ewThreads.Contains(post.Thread) {
				continue
			}
			cat := store.Board(store.Thread(post.Thread).Board).Category
			if cat == excludeCategory {
				continue
			}
			phase := phaseOf(post.Created, p.FirstEw, p.LastEw)
			counts[phase][cat]++
			totals[phase]++
		}
	}
	out := make(map[InterestPhase]InterestProfile, 3)
	for phase, byCat := range counts {
		prof := make(InterestProfile, len(byCat))
		if totals[phase] > 0 {
			for cat, n := range byCat {
				prof[cat] = 100 * float64(n) / float64(totals[phase])
			}
		}
		out[phase] = prof
	}
	return out
}

func phaseOf(t, firstEw, lastEw time.Time) InterestPhase {
	switch {
	case t.Before(firstEw):
		return PhaseBefore
	case t.After(lastEw):
		return PhaseAfter
	default:
		return PhaseDuring
	}
}
