package topclass

import (
	"reflect"
	"testing"

	"repro/internal/forum"
	"repro/internal/ml"
	"repro/internal/synth"
	"repro/internal/urlx"
)

// world is shared across tests (generation is the expensive part).
var world = synth.Generate(synth.Config{Seed: 11, Scale: 0.03})

// annotated converts the world's annotation sample.
func annotated(n int, seed uint64) []Labeled {
	sample := world.AnnotationSample(n, seed)
	out := make([]Labeled, len(sample))
	for i, s := range sample {
		out[i] = Labeled{Thread: s.Thread, IsTOP: s.IsTOP}
	}
	return out
}

func splitLabeled(all []Labeled, frac float64) (train, test []Labeled) {
	cut := int(frac * float64(len(all)))
	return all[:cut], all[cut:]
}

func TestHeuristicOnGroundTruth(t *testing.T) {
	// Heuristics alone must be precise: few request/tutorial threads
	// may pass, most TOPs with strong headings should.
	var m ml.Metrics
	for _, tid := range world.EWhoringAll() {
		truth := world.Truth[tid]
		m.Observe(Heuristic(world.Store, tid), truth != nil && truth.Kind == synth.KindTOP)
	}
	if p := m.Precision(); p < 0.6 {
		t.Fatalf("heuristic precision %.3f too low", p)
	}
	if r := m.Recall(); r < 0.3 {
		t.Fatalf("heuristic recall %.3f too low", r)
	}
}

func TestHybridMatchesPaperBand(t *testing.T) {
	all := annotated(1000, 5)
	train, test := splitLabeled(all, 0.8)
	h, err := Train(world.Store, urlx.DefaultWhitelist(), train, test, ml.DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := h.Evaluate(test)
	t.Logf("hybrid on held-out: P=%.3f R=%.3f F1=%.3f (paper: 0.92/0.93/0.92)",
		m.Precision(), m.Recall(), m.F1())
	if m.Precision() < 0.80 || m.Recall() < 0.80 {
		t.Fatalf("hybrid P=%.3f R=%.3f below the paper band", m.Precision(), m.Recall())
	}
}

func TestHybridBeatsOrMatchesParts(t *testing.T) {
	all := annotated(800, 9)
	train, test := splitLabeled(all, 0.8)
	h, err := Train(world.Store, urlx.DefaultWhitelist(), train, test, ml.DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mlOnly, heurOnly, hybrid ml.Metrics
	for _, l := range test {
		v := h.Classify(l.Thread)
		mlOnly.Observe(v.ML, l.IsTOP)
		heurOnly.Observe(v.Heuristic, l.IsTOP)
		hybrid.Observe(v.IsTOP(), l.IsTOP)
	}
	if hybrid.Recall() < mlOnly.Recall()-1e-9 || hybrid.Recall() < heurOnly.Recall()-1e-9 {
		t.Fatalf("union recall %.3f below a component (%.3f / %.3f)",
			hybrid.Recall(), mlOnly.Recall(), heurOnly.Recall())
	}
}

func TestExtractOverlapShape(t *testing.T) {
	all := annotated(800, 21)
	train, test := splitLabeled(all, 0.8)
	h, err := Train(world.Store, urlx.DefaultWhitelist(), train, test, ml.DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := h.Extract(world.EWhoringAll())
	if len(res.TOPs) == 0 {
		t.Fatal("no TOPs extracted")
	}
	// The union is at least as large as either side; the overlap is
	// at most the smaller side (paper: ML 3 456, heur 2 676, both
	// 1 995).
	if res.BothCount > res.MLCount || res.BothCount > res.HeurCount {
		t.Fatalf("overlap %d exceeds a side (%d, %d)", res.BothCount, res.MLCount, res.HeurCount)
	}
	union := res.MLCount + res.HeurCount - res.BothCount
	if len(res.TOPs) != union {
		t.Fatalf("TOPs %d != union %d", len(res.TOPs), union)
	}
	if res.MLCount == 0 || res.HeurCount == 0 {
		t.Fatalf("a method extracted nothing: %+v", res)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(world.Store, urlx.DefaultWhitelist(), nil, nil, ml.DefaultSVMConfig()); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestExtractorVectorShape(t *testing.T) {
	ex := NewExtractor(world.Store, urlx.DefaultWhitelist())
	threads := world.EWhoringAll()[:50]
	ex.Fit(threads)
	if ex.Dim() <= numStatFeatures {
		t.Fatal("vocabulary empty after Fit")
	}
	for _, tid := range threads {
		v := ex.Vector(tid)
		for k := 1; k < len(v.Idx); k++ {
			if v.Idx[k] <= v.Idx[k-1] {
				t.Fatalf("vector indices not ascending: %v", v.Idx)
			}
		}
		for _, i := range v.Idx {
			if i < 0 || i >= ex.Dim() {
				t.Fatalf("feature index %d out of range %d", i, ex.Dim())
			}
		}
	}
}

func TestKeywordTablesNonEmpty(t *testing.T) {
	if len(TOPKeywords) != 27 {
		t.Errorf("TOPKeywords = %d entries, Table 2 lists 27", len(TOPKeywords))
	}
	if len(EarningsKeywords) != 4 {
		t.Errorf("EarningsKeywords = %d entries, Table 2 lists 4", len(EarningsKeywords))
	}
	if len(EWhoringKeywords) != 2 {
		t.Errorf("EWhoringKeywords = %d", len(EWhoringKeywords))
	}
}

func TestHeuristicRejectsQuestions(t *testing.T) {
	s := forum.NewStore()
	f := s.AddForum("X")
	b := s.AddBoard(f, "ew", "Money")
	a := s.AddActor(f, "u", world.Store.Actor(1).Registered)
	top := s.AddThread(b, a, "selling unsaturated pack 100 pics", "body", world.Store.Thread(1).Created)
	ask := s.AddThread(b, a, "looking for a pack of pics?", "body", world.Store.Thread(1).Created)
	tut := s.AddThread(b, a, "pack tutorial guide pics", "body", world.Store.Thread(1).Created)
	if !Heuristic(s, top) {
		t.Error("clear TOP heading rejected")
	}
	if Heuristic(s, ask) {
		t.Error("request heading accepted")
	}
	if Heuristic(s, tut) {
		t.Error("tutorial heading accepted")
	}
}

// TestReuseMatchesFreshVectors holds the once-per-thread featurization
// to the per-thread path it replaced: every vector Train keeps equals a
// fresh Vector from an extractor fitted on the same training set, and
// Evaluate and Extract equal a Classify loop that recomputes every
// vector.
func TestReuseMatchesFreshVectors(t *testing.T) {
	all := annotated(600, 33)
	train, test := splitLabeled(all, 0.8)
	h, err := Train(world.Store, urlx.DefaultWhitelist(), train, test, ml.DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.annotated) != len(all) {
		t.Fatalf("kept %d vectors for %d annotated threads", len(h.annotated), len(all))
	}

	fresh := NewExtractor(world.Store, urlx.DefaultWhitelist())
	tids := make([]forum.ThreadID, len(train))
	for i, l := range train {
		tids[i] = l.Thread
	}
	fresh.Fit(tids)
	for tid, kept := range h.annotated {
		if want := fresh.Vector(tid); !reflect.DeepEqual(kept, want) {
			t.Fatalf("thread %d: kept vector %v, fresh %v", tid, kept, want)
		}
	}

	classify := func(tid forum.ThreadID) Vote {
		return Vote{
			ML:        h.SVM.Predict(fresh.Vector(tid)),
			Heuristic: Heuristic(world.Store, tid),
		}
	}
	var wantM ml.Metrics
	for _, l := range test {
		wantM.Observe(classify(l.Thread).IsTOP(), l.IsTOP)
	}
	if got := h.Evaluate(test); got != wantM {
		t.Errorf("Evaluate = %+v, per-thread loop %+v", got, wantM)
	}

	var want ExtractResult
	for _, tid := range world.EWhoringAll() {
		v := classify(tid)
		if v.ML {
			want.MLCount++
		}
		if v.Heuristic {
			want.HeurCount++
		}
		if v.ML && v.Heuristic {
			want.BothCount++
		}
		if v.IsTOP() {
			want.TOPs = append(want.TOPs, tid)
		}
	}
	if got := h.Extract(world.EWhoringAll()); !reflect.DeepEqual(got, want) {
		t.Errorf("Extract = ML %d heur %d both %d TOPs %d, per-thread loop ML %d heur %d both %d TOPs %d",
			got.MLCount, got.HeurCount, got.BothCount, len(got.TOPs),
			want.MLCount, want.HeurCount, want.BothCount, len(want.TOPs))
	}
}
