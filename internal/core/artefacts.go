package core

// The study as an artefact graph. Every named output of the paper —
// Table 1, the §4.1 classifier, the crawl, Table 5 provenance, the
// §5/§6 analyses — is one node of a DAG registered here; Run evaluates
// the whole graph and Compute evaluates a selection, so callers pay
// only for the artefacts they ask for. Each node's memo key is the
// projection of the study options onto the parameters that actually
// determine its value: worker counts and crawl concurrency are
// deliberately excluded (they change timings, never results — the
// determinism invariant DESIGN.md §3 pins), so a shared memo store
// reuses an already-crawled substrate across runs that differ only in
// those knobs.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/artefact"
	"repro/internal/crawler"
	"repro/internal/earnings"
	"repro/internal/forum"
	"repro/internal/photodna"
	"repro/internal/urlx"
)

// Artefact node names — the study's stable artefact identities.
const (
	ArtefactSelect     = "select"     // §3 thread selection
	ArtefactClassifier = "classifier" // §4.1 TOP classifier
	ArtefactTable1     = "table1"     // Table 1 forum overview (with TOPs)
	ArtefactLinks      = "links"      // §4.2 URL extraction (Tables 3/4)
	ArtefactCrawl      = "crawl"      // §4.2 crawl
	ArtefactPhotoDNA   = "photodna"   // §4.3 hashlist gate
	ArtefactNSFV       = "nsfv"       // §4.4 NSFV split
	ArtefactProvenance = "provenance" // §4.5 reverse search (Tables 5/6)
	ArtefactEarnings   = "earnings"   // §5 financial analysis (Figures 2/3)
	ArtefactActors     = "actors"     // §6 actor analysis (Tables 8-10, Figures 4/5)
	ArtefactExchange   = "exchange"   // §5.3 currency exchange (Table 7)
)

// Artefacts lists every artefact name in canonical (pipeline) order.
func Artefacts() []string {
	return []string{
		ArtefactSelect, ArtefactClassifier, ArtefactTable1,
		ArtefactLinks, ArtefactCrawl, ArtefactPhotoDNA, ArtefactNSFV,
		ArtefactProvenance, ArtefactEarnings, ArtefactActors, ArtefactExchange,
	}
}

// SpanDeps returns the study's blocking-dependency graph in trace-span
// naming: "node X" depends on "node Y" per the artefact registry, and
// the root "node select" additionally blocks on "synth" (world
// generation precedes every evaluation, and its span is emitted by
// whoever generates — the service's world cache or a study
// constructor). This is the deps input for tracex.CriticalPath.
func SpanDeps() map[string][]string {
	raw := studyGraph.Deps()
	out := make(map[string][]string, len(raw))
	for name, deps := range raw {
		spanDeps := make([]string, 0, len(deps)+1)
		for _, d := range deps {
			spanDeps = append(spanDeps, "node "+d)
		}
		if name == ArtefactSelect {
			spanDeps = append(spanDeps, "synth")
		}
		out["node "+name] = spanDeps
	}
	return out
}

// ResolveArtefacts maps artefact names to deduplicated artefact names
// in canonical order. Names are normalized (trimmed, lowercased)
// first, so "Provenance" from a CLI -only list resolves like
// "provenance". An empty input resolves to every artefact; unknown
// names are errors. Table and figure names belong to report.Resolve,
// which maps them to the artefacts that produce them.
func ResolveArtefacts(names ...string) ([]string, error) {
	all := Artefacts()
	if len(names) == 0 {
		return all, nil
	}
	valid := make(map[string]bool, len(all))
	for _, a := range all {
		valid[a] = true
	}
	want := make(map[string]bool, len(names))
	for _, name := range names {
		a := strings.ToLower(strings.TrimSpace(name))
		if !valid[a] {
			return nil, fmt.Errorf("core: unknown artefact %q (artefacts: %v)", name, all)
		}
		want[a] = true
	}
	out := make([]string, 0, len(want))
	for _, a := range all {
		if want[a] {
			out = append(out, a)
		}
	}
	return out, nil
}

// worldKey is the canonical identity of the generated world: the part
// of the request the §3 selection depends on.
func (s *Study) worldKey() string {
	c := s.Opts.Synth.Canonical()
	return "seed=" + strconv.FormatUint(c.Seed, 10) +
		"|scale=" + strconv.FormatFloat(c.Scale, 'g', -1, 64) +
		"|img=" + strconv.Itoa(c.ImageSize) +
		"|skip=" + strconv.FormatBool(c.SkipImages)
}

// studyKey extends worldKey with every semantic study option — the
// parameters that can change any artefact's value. Workers and
// CrawlConcurrency are excluded on purpose: they size goroutine
// pools, and the determinism invariant guarantees they never move a
// result.
func (s *Study) studyKey() string {
	key := s.worldKey() + "|ann=" + strconv.Itoa(s.Opts.AnnotationSize)
	if s.Opts.Faults != "" {
		// Fault injection changes what the crawl can fetch, so it is
		// part of every artefact's identity.
		key += "|faults=" + s.Opts.Faults
	}
	return key
}

// Composite node values. Artefact values must be self-contained —
// downstream nodes read them instead of study state, so a value
// memoized by one study instance feeds another's evaluation without
// recomputing anything (the whitelist a snowball run expanded travels
// with the links value, not on the study).
type (
	linksValue struct {
		links     LinkExtraction
		whitelist *urlx.Whitelist
	}
	crawlValue struct {
		results []crawler.Result
		stats   crawler.Stats
	}
	photodnaValue struct {
		safe    []SafeImage
		summary photodna.ActionSummary
	}
)

// studyGraph is the artefact DAG over a *Study. Each node calls its
// stage method, the stage's only body, so a node value is exactly what
// a direct call returns; the equivalence tests and the golden seed-77
// report pin the whole evaluation.
var studyGraph = newStudyGraph()

func newStudyGraph() *artefact.Graph[*Study] {
	g := artefact.NewGraph[*Study]()
	worldKey := func(s *Study) string { return s.worldKey() }
	studyKey := func(s *Study) string { return s.studyKey() }

	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactSelect,
		Key:  worldKey,
		Compute: func(_ context.Context, s *Study, _ artefact.Deps) (any, error) {
			return s.SelectEWhoring(), nil
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactClassifier,
		Deps: []string{ArtefactSelect},
		Key:  studyKey,
		Compute: func(_ context.Context, s *Study, d artefact.Deps) (any, error) {
			return s.TrainAndExtract(artefact.Get[[]forum.ThreadID](d, ArtefactSelect))
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactTable1,
		Deps: []string{ArtefactSelect, ArtefactClassifier},
		Key:  studyKey,
		Compute: func(_ context.Context, s *Study, d artefact.Deps) (any, error) {
			cls := artefact.Get[ClassifierResult](d, ArtefactClassifier)
			rows := s.ForumOverview(artefact.Get[[]forum.ThreadID](d, ArtefactSelect))
			for i := range rows {
				rows[i].TOPs = cls.TOPsByForum[rows[i].Forum]
			}
			return rows, nil
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactLinks,
		Deps: []string{ArtefactClassifier},
		Key:  studyKey,
		Compute: func(ctx context.Context, s *Study, d artefact.Deps) (any, error) {
			cls := artefact.Get[ClassifierResult](d, ArtefactClassifier)
			// The snowball-expanded whitelist travels in the value, so
			// the earnings node (and any study that receives this value
			// from memo) classifies against the expanded list.
			links, whitelist := s.ExtractLinks(cls.Extract.TOPs)
			return linksValue{links: links, whitelist: whitelist}, nil
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactCrawl,
		Deps: []string{ArtefactLinks},
		Key:  studyKey,
		Compute: func(ctx context.Context, s *Study, d artefact.Deps) (any, error) {
			results, err := s.CrawlLinks(ctx, artefact.Get[linksValue](d, ArtefactLinks).links.Tasks)
			if err != nil {
				return nil, err
			}
			return crawlValue{results: results, stats: crawler.Summarize(results)}, nil
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactPhotoDNA,
		Deps: []string{ArtefactCrawl},
		Key:  studyKey,
		Compute: func(ctx context.Context, s *Study, d artefact.Deps) (any, error) {
			safe, summary, err := s.FilterAbuse(ctx, artefact.Get[crawlValue](d, ArtefactCrawl).results)
			if err != nil {
				return nil, err
			}
			return photodnaValue{safe: safe, summary: summary}, nil
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactNSFV,
		Deps: []string{ArtefactPhotoDNA},
		Key:  studyKey,
		Compute: func(ctx context.Context, s *Study, d artefact.Deps) (any, error) {
			return s.ClassifyNSFV(ctx, artefact.Get[photodnaValue](d, ArtefactPhotoDNA).safe)
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactProvenance,
		Deps: []string{ArtefactNSFV},
		Key:  studyKey,
		Compute: func(ctx context.Context, s *Study, d artefact.Deps) (any, error) {
			return s.Provenance(ctx, artefact.Get[NSFVResult](d, ArtefactNSFV))
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactEarnings,
		// The §5 analysis classifies links against the post-snowball
		// whitelist, so it depends on the links artefact even though
		// it shares no tasks with the image branch.
		Deps: []string{ArtefactSelect, ArtefactLinks},
		Key:  studyKey,
		Compute: func(ctx context.Context, s *Study, d artefact.Deps) (any, error) {
			return s.AnalyzeEarnings(ctx, artefact.Get[[]forum.ThreadID](d, ArtefactSelect),
				artefact.Get[linksValue](d, ArtefactLinks).whitelist)
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactActors,
		Deps: []string{ArtefactSelect, ArtefactClassifier, ArtefactEarnings},
		Key:  studyKey,
		Compute: func(_ context.Context, s *Study, d artefact.Deps) (any, error) {
			ew := artefact.Get[[]forum.ThreadID](d, ArtefactSelect)
			cls := artefact.Get[ClassifierResult](d, ArtefactClassifier)
			proofs := artefact.Get[EarningsResult](d, ArtefactEarnings).Proofs
			return s.AnalyzeActors(ew, cls.Extract.TOPs, proofs), nil
		},
	})
	g.MustRegister(artefact.Node[*Study]{
		Name: ArtefactExchange,
		Deps: []string{ArtefactActors},
		Key:  studyKey,
		Compute: func(_ context.Context, s *Study, d artefact.Deps) (any, error) {
			return s.ExchangeAnalysis(artefact.Get[ActorAnalysis](d, ArtefactActors).Profiles), nil
		},
	})
	return g
}

// UseMemo attaches a shared artefact memo store: node values memoize
// into it under their canonical keys, so later runs — this study's or
// another study's with overlapping semantics — reuse them instead of
// recomputing. Must be set before the first Run or Compute; without
// it the study memoizes into a private store, so reuse stops at the
// study boundary.
func (s *Study) UseMemo(store *artefact.Store) {
	s.memo = store
}

// Compute evaluates only the named artefacts (plus their transitive
// dependencies) and returns a partial Results holding every field the
// evaluation produced. Names are artefact names ("provenance",
// "earnings"); report.Resolve maps table and figure names to them. An
// empty list computes everything.
// Unlike Run, Compute does not stop the embedded hosting server — call
// Close when done — so a study can serve any number of selective
// computations; repeated calls are idempotent and answered from the
// study's memo (private, or the shared store given to UseMemo).
func (s *Study) Compute(ctx context.Context, names ...string) (*Results, error) {
	arts, err := ResolveArtefacts(names...)
	if err != nil {
		return nil, err
	}
	vals, err := s.evaluate(ctx, arts)
	if err != nil {
		return nil, err
	}
	res := &Results{}
	fillResults(res, vals)
	return res, nil
}

// evaluate runs the artefact graph over this study. Values land in
// the shared memo store when one is attached, otherwise in the
// study's private store — either way evaluation is idempotent: a node
// computes at most once per semantic key, however many times Run or
// Compute ask for it, and the store's ledger records each node's
// outcome.
func (s *Study) evaluate(ctx context.Context, arts []string) (map[string]any, error) {
	store := s.memo
	if store == nil {
		store = s.localMemo
	}
	return studyGraph.Evaluate(ctx, s, store, arts...)
}

// fillResults copies evaluated artefact values into their Results
// fields. Only evaluated artefacts are filled; the rest stay zero.
func fillResults(res *Results, vals map[string]any) {
	for name, v := range vals {
		switch name {
		case ArtefactSelect:
			res.EWhoringThreads = v.([]forum.ThreadID)
		case ArtefactClassifier:
			res.Classifier = v.(ClassifierResult)
		case ArtefactTable1:
			res.Table1 = v.([]ForumOverviewRow)
		case ArtefactLinks:
			res.Links = v.(linksValue).links
		case ArtefactCrawl:
			res.CrawlStats = v.(crawlValue).stats
		case ArtefactPhotoDNA:
			res.PhotoDNA = v.(photodnaValue).summary
		case ArtefactNSFV:
			res.NSFV = v.(NSFVResult)
		case ArtefactProvenance:
			res.Provenance = v.(ProvenanceResult)
		case ArtefactEarnings:
			res.Earnings = v.(EarningsResult)
		case ArtefactActors:
			res.Actors = v.(ActorAnalysis)
		case ArtefactExchange:
			res.Table7 = v.(earnings.ExchangeTable)
		}
	}
}
