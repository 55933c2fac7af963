package socialgraph

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/forum"
	"repro/internal/randx"
)

func day(n int) time.Time {
	return time.Date(2015, time.January, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func TestAddResponseAndWeight(t *testing.T) {
	g := NewGraph()
	g.AddResponse(1, 2)
	g.AddResponse(1, 2)
	g.AddResponse(2, 1)
	g.AddResponse(3, 3) // self-loop ignored
	if g.Weight(1, 2) != 2 || g.Weight(2, 1) != 1 {
		t.Fatalf("weights = %v %v", g.Weight(1, 2), g.Weight(2, 1))
	}
	if g.Weight(3, 3) != 0 {
		t.Fatal("self-loop recorded")
	}
	if g.NumActors() != 3 || g.NumEdges() != 2 {
		t.Fatalf("actors %d edges %d", g.NumActors(), g.NumEdges())
	}
	if g.Weight(9, 1) != 0 || g.Weight(1, 9) != 0 {
		t.Fatal("unknown actor weight nonzero")
	}
}

func TestBuildResponseRules(t *testing.T) {
	s := forum.NewStore()
	f := s.AddForum("HF")
	b := s.AddBoard(f, "eWhoring", "Money")
	alice := s.AddActor(f, "alice", day(0))
	bob := s.AddActor(f, "bob", day(0))
	carol := s.AddActor(f, "carol", day(0))

	th := s.AddThread(b, alice, "pack", "selling", day(1))
	first := s.FirstPost(th)
	// Bob replies without quoting → responds to thread author alice.
	s.AddReply(th, bob, "thanks", day(2), 0)
	// Carol quotes bob's post → responds to bob.
	bobPost := s.PostsInThread(th)[1]
	s.AddReply(th, carol, "agreed", day(3), bobPost.ID)
	// Alice replies quoting her own first post → self-loop, ignored.
	s.AddReply(th, alice, "bump", day(4), first.ID)

	g := Build(s, []forum.ThreadID{th})
	if g.Weight(bob, alice) != 1 {
		t.Errorf("bob→alice = %v", g.Weight(bob, alice))
	}
	if g.Weight(carol, bob) != 1 {
		t.Errorf("carol→bob = %v", g.Weight(carol, bob))
	}
	if g.Weight(alice, alice) != 0 {
		t.Errorf("alice self-loop recorded")
	}
	if g.NumActors() != 3 {
		t.Errorf("NumActors = %d", g.NumActors())
	}
}

func TestBuildIncludesSilentStarters(t *testing.T) {
	s := forum.NewStore()
	f := s.AddForum("HF")
	b := s.AddBoard(f, "eWhoring", "Money")
	alice := s.AddActor(f, "alice", day(0))
	th := s.AddThread(b, alice, "no replies", "x", day(1))
	g := Build(s, []forum.ThreadID{th})
	if g.NumActors() != 1 {
		t.Fatalf("NumActors = %d; silent thread starters must be nodes", g.NumActors())
	}
}

func TestEigenvectorCentralityStar(t *testing.T) {
	// Star graph: hub 1 interacts with 2..6. Hub must dominate.
	g := NewGraph()
	for a := forum.ActorID(2); a <= 6; a++ {
		g.AddResponse(a, 1)
	}
	c := g.EigenvectorCentrality(0, 0)
	if c[1] != 1 {
		t.Fatalf("hub centrality = %v, want 1 (normalised max)", c[1])
	}
	for a := forum.ActorID(2); a <= 6; a++ {
		if c[a] >= c[1] {
			t.Fatalf("leaf %d centrality %v >= hub", a, c[a])
		}
	}
	// Leaves are symmetric.
	if math.Abs(c[2]-c[6]) > 1e-6 {
		t.Fatalf("symmetric leaves differ: %v vs %v", c[2], c[6])
	}
}

func TestEigenvectorCentralityWeightMatters(t *testing.T) {
	g := NewGraph()
	// 2 responds to 1 ten times; 3 responds to 1 once; 2 and 3
	// otherwise identical.
	for i := 0; i < 10; i++ {
		g.AddResponse(2, 1)
	}
	g.AddResponse(3, 1)
	c := g.EigenvectorCentrality(0, 0)
	if c[2] <= c[3] {
		t.Fatalf("heavier edge did not raise centrality: %v vs %v", c[2], c[3])
	}
}

func TestEigenvectorCentralityEmpty(t *testing.T) {
	g := NewGraph()
	if len(g.EigenvectorCentrality(0, 0)) != 0 {
		t.Fatal("empty graph returned centralities")
	}
}

func TestHIndex(t *testing.T) {
	cases := []struct {
		counts []int
		want   int
	}{
		{nil, 0},
		{[]int{0, 0}, 0},
		{[]int{1}, 1},
		{[]int{5, 4, 3, 2, 1}, 3},
		{[]int{10, 10, 10}, 3},
		{[]int{100}, 1},
		{[]int{2, 2, 2, 2}, 2},
	}
	for _, c := range cases {
		if got := HIndex(c.counts); got != c.want {
			t.Errorf("HIndex(%v) = %d want %d", c.counts, got, c.want)
		}
	}
}

func TestComputePopularity(t *testing.T) {
	s := forum.NewStore()
	f := s.AddForum("HF")
	b := s.AddBoard(f, "eWhoring", "Money")
	alice := s.AddActor(f, "alice", day(0))
	bob := s.AddActor(f, "bob", day(0))
	var threads []forum.ThreadID
	// Alice: threads with 12, 60 and 2 replies.
	for _, replies := range []int{12, 60, 2} {
		th := s.AddThread(b, alice, "t", "x", day(1))
		for i := 0; i < replies; i++ {
			s.AddReply(th, bob, "r", day(2), 0)
		}
		threads = append(threads, th)
	}
	pop := ComputePopularity(s, threads)
	a := pop[alice]
	if a.Threads != 3 {
		t.Errorf("Threads = %d", a.Threads)
	}
	if a.I10 != 2 || a.I50 != 1 || a.I100 != 0 {
		t.Errorf("I-indices = %+v", a)
	}
	// Reply counts 60, 12, 2 → H = 2.
	if a.H != 2 {
		t.Errorf("H = %d", a.H)
	}
	if _, ok := pop[bob]; ok {
		t.Error("non-starter bob has popularity")
	}
}

func TestTopByCentrality(t *testing.T) {
	c := map[forum.ActorID]float64{1: 0.5, 2: 1.0, 3: 0.5, 4: 0.1}
	top := TopByCentrality(c, 3)
	if len(top) != 3 || top[0] != 2 {
		t.Fatalf("top = %v", top)
	}
	// Ties broken by ID: 1 before 3.
	if top[1] != 1 || top[2] != 3 {
		t.Fatalf("tie order = %v", top)
	}
	if len(TopByCentrality(c, 100)) != 4 {
		t.Fatal("k > n not clamped")
	}
}

// Property: H-index is at most the list length and at most the max
// count.
func TestQuickHIndexBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		maxC := 0
		for i, v := range raw {
			counts[i] = int(v)
			if counts[i] > maxC {
				maxC = counts[i]
			}
		}
		h := HIndex(counts)
		return h >= 0 && h <= len(counts) && h <= maxC
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: centralities are within [0, 1] after normalisation.
func TestQuickCentralityBounded(t *testing.T) {
	f := func(edges []uint16) bool {
		g := NewGraph()
		for _, e := range edges {
			a := forum.ActorID(e%13 + 1)
			b := forum.ActorID((e>>4)%13 + 1)
			g.AddResponse(a, b)
		}
		for _, v := range g.EigenvectorCentrality(50, 1e-8) {
			if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceCentrality is EigenvectorCentrality as it was before CSR:
// the symmetrised matrix as one map per row, each visited in map
// order. The CSR kernel must reproduce it bit for bit.
func referenceCentrality(g *Graph, maxIter int, tol float64) map[forum.ActorID]float64 {
	n := len(g.actors)
	result := make(map[forum.ActorID]float64, n)
	if n == 0 {
		return result
	}
	sym := make([]map[int]float64, n)
	for i := range sym {
		sym[i] = make(map[int]float64)
	}
	for i, m := range g.out {
		for j, w := range m {
			sym[i][j] += w
			sym[j][i] += w
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	next := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for i := range sym {
			xi := x[i]
			if xi == 0 {
				continue
			}
			for j, w := range sym[i] {
				next[j] += w * xi
			}
		}
		norm := 0.0
		for _, v := range next {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		diff := 0.0
		for i := range next {
			next[i] /= norm
			diff += math.Abs(next[i] - x[i])
		}
		x, next = next, x
		if diff < tol {
			break
		}
	}
	max := 0.0
	for _, v := range x {
		if v > max {
			max = v
		}
	}
	for i, a := range g.actors {
		if max > 0 {
			result[a] = x[i] / max
		} else {
			result[a] = 0
		}
	}
	return result
}

// TestCentralityMatchesMapReference holds the CSR kernel to the map
// reference with == on every value, over random graphs with repeated
// responses, reciprocal pairs, self-responses and silent actors, at
// the study's iteration budget and at one that runs every iteration.
func TestCentralityMatchesMapReference(t *testing.T) {
	rng := randx.New(21)
	for trial := 0; trial < 60; trial++ {
		actors := 1 + rng.Intn(120)
		g := NewGraph()
		for e, edges := 0, rng.Intn(6*actors); e < edges; e++ {
			a := forum.ActorID(1 + rng.Intn(actors))
			b := forum.ActorID(1 + rng.Intn(actors))
			g.AddResponse(a, b)
			if rng.Bool(0.3) {
				g.AddResponse(b, a)
			}
			if rng.Bool(0.2) {
				g.AddResponse(a, b)
			}
		}
		g.node(forum.ActorID(actors + 1)) // a starter nobody answered
		for _, budget := range []struct {
			iter int
			tol  float64
		}{{80, 1e-9}, {100, 1e-300}} {
			got := g.EigenvectorCentrality(budget.iter, budget.tol)
			want := referenceCentrality(g, budget.iter, budget.tol)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d centralities, reference has %d", trial, len(got), len(want))
			}
			for a, w := range want {
				if v, ok := got[a]; !ok || v != w {
					t.Fatalf("trial %d, budget %+v: actor %d centrality %v, reference %v", trial, budget, a, v, w)
				}
			}
		}
	}
}

func BenchmarkEigenvectorCentrality(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 2000; i++ {
		a := forum.ActorID(i%500 + 1)
		t := forum.ActorID((i*7)%500 + 1)
		g.AddResponse(a, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.EigenvectorCentrality(50, 1e-9)
	}
}
