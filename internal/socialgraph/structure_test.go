package socialgraph

import (
	"testing"

	"repro/internal/forum"
	"repro/internal/synth"
)

func TestDegrees(t *testing.T) {
	g := NewGraph()
	g.AddResponse(1, 2)
	g.AddResponse(1, 2)
	g.AddResponse(3, 2)
	g.AddResponse(2, 1)
	d := g.Degrees()
	if d[1].Out != 1 || d[1].OutW != 2 || d[1].In != 1 || d[1].InW != 1 {
		t.Fatalf("degree(1) = %+v", d[1])
	}
	if d[2].In != 2 || d[2].InW != 3 {
		t.Fatalf("degree(2) = %+v", d[2])
	}
	if d[3].In != 0 || d[3].Out != 1 {
		t.Fatalf("degree(3) = %+v", d[3])
	}
}

func TestDegreesIncludeIsolated(t *testing.T) {
	g := NewGraph()
	g.AddResponse(5, 5) // self-loop: node created, no edge
	d := g.Degrees()
	if len(d) != 1 {
		t.Fatalf("degrees = %v", d)
	}
	if d[5].In != 0 || d[5].Out != 0 {
		t.Fatalf("isolated degree = %+v", d[5])
	}
}

func TestComponents(t *testing.T) {
	g := NewGraph()
	// Component A: 1-2-3; component B: 10-11; isolated: 20.
	g.AddResponse(1, 2)
	g.AddResponse(3, 2)
	g.AddResponse(10, 11)
	g.AddResponse(20, 20)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 1 || comps[0][2] != 3 {
		t.Fatalf("giant = %v", comps[0])
	}
	if len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("sizes = %d/%d", len(comps[1]), len(comps[2]))
	}
	frac := g.GiantComponentFraction()
	if frac != 0.5 { // 3 of 6 actors
		t.Fatalf("giant fraction = %v", frac)
	}
}

func TestComponentsEmpty(t *testing.T) {
	g := NewGraph()
	if g.Components() != nil {
		t.Fatal("empty graph has components")
	}
	if g.GiantComponentFraction() != 0 {
		t.Fatal("empty graph giant fraction nonzero")
	}
}

func TestGiantComponentOnWorld(t *testing.T) {
	// The eWhoring interaction network has a giant component: most
	// actors reply in shared threads.
	w := synth.Generate(synth.Config{Seed: 13, Scale: 0.01, SkipImages: true})
	var ew []forum.ThreadID
	for _, ids := range w.EWhoring {
		ew = append(ew, ids...)
	}
	g := Build(w.Store, ew)
	if g.NumActors() < 50 {
		t.Skipf("world too small: %d actors", g.NumActors())
	}
	frac := g.GiantComponentFraction()
	if frac < 0.5 {
		t.Fatalf("giant component %.2f of graph; interaction network fragmented", frac)
	}
}
