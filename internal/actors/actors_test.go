package actors

import (
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/forum"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

var world = synth.Generate(synth.Config{Seed: 31, Scale: 0.02, SkipImages: true})

func ewAll() []forum.ThreadID { return world.EWhoringAll() }

func TestBuildProfiles(t *testing.T) {
	profiles := BuildProfiles(world.Store, ewAll())
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	for _, p := range profiles {
		if p.EwPosts <= 0 {
			t.Fatalf("actor %d with zero eWhoring posts profiled", p.Actor)
		}
		if p.TotalPosts < p.EwPosts {
			t.Fatalf("actor %d: total %d < eWhoring %d", p.Actor, p.TotalPosts, p.EwPosts)
		}
		if p.DaysBefore() < 0 || p.DaysAfter() < 0 {
			t.Fatalf("actor %d: negative before/after days", p.Actor)
		}
		if pct := p.PctEwhoring(); pct <= 0 || pct > 100 {
			t.Fatalf("actor %d: pct %.2f", p.Actor, pct)
		}
	}
}

func TestBucketsMonotone(t *testing.T) {
	profiles := BuildProfiles(world.Store, ewAll())
	rows := Buckets(SortProfiles(profiles), nil)
	if len(rows) != len(Table8Thresholds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Actors > rows[i-1].Actors {
			t.Fatalf("bucket %d larger than bucket %d", i, i-1)
		}
	}
	if rows[0].Actors == 0 {
		t.Fatal("no actors in the ≥1 bucket")
	}
	// The heavy tail must thin out dramatically (Table 8: 73k → 13).
	if rows[len(rows)-1].Actors >= rows[0].Actors/5 {
		t.Fatalf("tail bucket too fat: %d of %d", rows[len(rows)-1].Actors, rows[0].Actors)
	}
	// Avg posts grows with the bucket threshold.
	if rows[0].AvgPosts >= rows[len(rows)-2].AvgPosts && rows[len(rows)-2].Actors > 0 {
		t.Errorf("avg posts not growing: %.1f vs %.1f", rows[0].AvgPosts, rows[len(rows)-2].AvgPosts)
	}
}

func TestCollectSamples(t *testing.T) {
	profiles := BuildProfiles(world.Store, ewAll())
	fig := CollectSamples(SortProfiles(profiles), nil)
	if len(fig) != len(Table8Thresholds) {
		t.Fatalf("%d buckets for %d thresholds", len(fig), len(Table8Thresholds))
	}
	all, ten := fig[1], fig[10]
	if len(all.Posts) != len(profiles) {
		t.Fatalf("samples %d != profiles %d", len(all.Posts), len(profiles))
	}
	if len(ten.Posts) >= len(all.Posts) {
		t.Fatal("min-post filter did nothing")
	}
	for thr, s := range fig {
		n := len(s.Posts)
		if len(s.Pct) != n || len(s.DaysBefore) != n || len(s.DaysAfter) != n {
			t.Fatalf("bucket >=%d: series lengths differ", thr)
		}
		for name, xs := range map[string][]float64{"posts": s.Posts, "pct": s.Pct, "before": s.DaysBefore, "after": s.DaysAfter} {
			if !slices.IsSorted(xs) {
				t.Fatalf("bucket >=%d: %s series not sorted ascending", thr, name)
			}
		}
	}
}

func buildInputs(t testing.TB) (map[forum.ActorID]*Profile, KeyActorInputs) {
	ew := ewAll()
	profiles := BuildProfiles(world.Store, ew)
	graph := socialgraph.Build(world.Store, ew)
	packs := make(map[forum.ActorID]int)
	for _, tid := range ew {
		if tr := world.Truth[tid]; tr != nil && tr.Kind == synth.KindTOP {
			packs[world.Store.Thread(tid).Author]++
		}
	}
	earn := make(map[forum.ActorID]float64)
	for _, pt := range world.Proofs {
		if pt.Kind == synth.ProofEarnings {
			earn[pt.Actor] += pt.Truth.Total
		}
	}
	scores, counts := ExchangeScores(world.Store, world.HFCurrency, profiles)
	in := KeyActorInputs{
		PacksShared:     packs,
		EarningsUSD:     earn,
		Popularity:      socialgraph.ComputePopularity(world.Store, ew),
		Centrality:      graph.EigenvectorCentrality(60, 1e-8),
		ExchangeScore:   scores,
		ExchangeThreads: counts,
	}
	return profiles, in
}

func TestSelectKeyActors(t *testing.T) {
	_, in := buildInputs(t)
	ka := SelectKeyActors(in, SelectionConfig{TopK: 20, MinPacks: 2})
	if len(ka.All) == 0 {
		t.Fatal("no key actors")
	}
	for _, g := range []Group{GroupPopular, GroupInfluence, GroupEarnings, GroupExchange} {
		if len(ka.Members[g]) == 0 {
			t.Errorf("group %s empty", g)
		}
		if len(ka.Members[g]) > 20 {
			t.Errorf("group %s larger than TopK: %d", g, len(ka.Members[g]))
		}
	}
	// Union ≤ sum of groups; all sorted unique.
	for i := 1; i < len(ka.All); i++ {
		if ka.All[i] <= ka.All[i-1] {
			t.Fatal("All not sorted unique")
		}
	}
}

func TestIntersectionsConsistent(t *testing.T) {
	_, in := buildInputs(t)
	ka := SelectKeyActors(in, SelectionConfig{TopK: 20, MinPacks: 2})
	inter := ka.Intersections()
	for _, g := range Groups {
		for _, h := range Groups {
			if g == h {
				continue
			}
			if inter[g][h] != inter[h][g] {
				t.Fatalf("intersection not symmetric: %s/%s %d vs %d", g, h, inter[g][h], inter[h][g])
			}
			if inter[g][h] > len(ka.Members[g]) || inter[g][h] > len(ka.Members[h]) {
				t.Fatalf("intersection %s/%s = %d exceeds group size", g, h, inter[g][h])
			}
		}
		if inter[g][g] > len(ka.Members[g]) {
			t.Fatalf("diagonal %s exceeds group size", g)
		}
	}
}

func TestGroupCharacteristics(t *testing.T) {
	profiles, in := buildInputs(t)
	ka := SelectKeyActors(in, SelectionConfig{TopK: 20, MinPacks: 2})
	rows := ka.GroupCharacteristics(profiles, in)
	if len(rows) != len(Groups)+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	all := rows[len(rows)-1]
	if all.Group != Group("ALL") || all.Members != len(ka.All) {
		t.Fatalf("ALL row wrong: %+v", all)
	}
	// The earnings group should out-earn the average key actor.
	var earnRow GroupStats
	for _, r := range rows {
		if r.Group == GroupEarnings {
			earnRow = r
		}
	}
	if earnRow.Members > 0 && earnRow.AvgAmountUSD < all.AvgAmountUSD {
		t.Errorf("$ group avg %.0f below ALL avg %.0f", earnRow.AvgAmountUSD, all.AvgAmountUSD)
	}
	// Packs group shares the most packs on average.
	var packRow GroupStats
	for _, r := range rows {
		if r.Group == GroupPacks {
			packRow = r
		}
	}
	if packRow.Members > 0 && packRow.AvgPacks < all.AvgPacks {
		t.Errorf("packs group avg %.1f below ALL avg %.1f", packRow.AvgPacks, all.AvgPacks)
	}
}

func TestExchangeScores(t *testing.T) {
	profiles := BuildProfiles(world.Store, ewAll())
	scores, counts := ExchangeScores(world.Store, world.HFCurrency, profiles)
	if len(scores) == 0 {
		t.Fatal("no exchange scores; Currency Exchange board unused by eWhoring actors")
	}
	for a, s := range scores {
		if s <= 0 {
			t.Fatalf("actor %d: score %v", a, s)
		}
		if counts[a] == 0 {
			t.Fatalf("actor %d scored without CE threads", a)
		}
	}
}

func TestInterestsShift(t *testing.T) {
	profiles, in := buildInputs(t)
	ka := SelectKeyActors(in, SelectionConfig{TopK: 25, MinPacks: 2})
	ewSet := forum.NewThreadSet(ewAll()...)
	interests := Interests(world.Store, ka.All, profiles, ewSet, "Lounge")
	before, during, after := interests[PhaseBefore], interests[PhaseDuring], interests[PhaseAfter]
	if len(before) == 0 || len(during) == 0 || len(after) == 0 {
		t.Fatalf("empty phase profile: %d/%d/%d", len(before), len(during), len(after))
	}
	// Figure 5's shape: gaming+hacking dominate before; market share
	// grows over the phases.
	if before["Gaming"]+before["Hacking"] < before["Market"] {
		t.Errorf("before: gaming+hacking %.1f%% < market %.1f%%",
			before["Gaming"]+before["Hacking"], before["Market"])
	}
	if after["Market"] <= before["Market"] {
		t.Errorf("market share did not grow: before %.1f%% after %.1f%%",
			before["Market"], after["Market"])
	}
	// Percentages sum to ~100 per phase. Fold in category order:
	// float accumulation over map order is the PR 1 bug class the
	// determinism analyzer bans, and tests hold the same bar.
	for phase, prof := range interests {
		cats := make([]string, 0, len(prof))
		for c := range prof {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		sum := 0.0
		for _, c := range cats {
			sum += prof[c]
		}
		if sum < 99 || sum > 101 {
			t.Errorf("phase %s percentages sum to %.2f", phase, sum)
		}
		if _, ok := prof["Lounge"]; ok {
			t.Errorf("phase %s includes the excluded Lounge category", phase)
		}
	}
}

func TestPhaseOf(t *testing.T) {
	t0 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	if phaseOf(t0.AddDate(0, 0, -1), t0, t1) != PhaseBefore {
		t.Error("before wrong")
	}
	if phaseOf(t0.AddDate(0, 5, 0), t0, t1) != PhaseDuring {
		t.Error("during wrong")
	}
	if phaseOf(t1.AddDate(0, 0, 1), t0, t1) != PhaseAfter {
		t.Error("after wrong")
	}
	if PhaseBefore.String() != "before" || PhaseDuring.String() != "during" || PhaseAfter.String() != "after" {
		t.Error("phase names wrong")
	}
}
