package core

import (
	"context"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/artefact"
	"repro/internal/imagex"
	"repro/internal/synth"
)

func artefactTestOptions() Options {
	return Options{
		Synth:          synth.Config{Seed: 7, Scale: 0.02, ImageSize: 48},
		AnnotationSize: 400,
		Workers:        4,
	}
}

// TestComputeSelective pins the selectivity acceptance criterion via
// the node-execution ledger: computing only Table 5 evaluates exactly
// the provenance closure — the earnings, actor and exchange nodes are
// never invoked.
func TestComputeSelective(t *testing.T) {
	store := artefact.NewStore(0)
	s := NewStudy(artefactTestOptions())
	defer s.Close()
	s.UseMemo(store)

	res, err := s.Compute(context.Background(), ArtefactProvenance)
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance.Packs.Total == 0 {
		t.Fatal("provenance not computed")
	}
	// The closure fields ride along...
	if len(res.EWhoringThreads) == 0 || res.CrawlStats.Tasks == 0 {
		t.Error("dependency artefacts missing from partial Results")
	}
	// ...but nothing outside the closure may have run.
	for _, name := range []string{ArtefactEarnings, ArtefactActors, ArtefactExchange, ArtefactTable1} {
		if n := store.ComputeCount(name); n != 0 {
			t.Errorf("node %s computed %d times for a table5-only request", name, n)
		}
	}
	if res.Earnings.Summary.Proofs != 0 || res.Actors.Profiles != nil {
		t.Error("partial Results carries artefacts outside the requested closure")
	}
	for _, name := range []string{ArtefactSelect, ArtefactClassifier, ArtefactLinks, ArtefactCrawl, ArtefactPhotoDNA, ArtefactNSFV, ArtefactProvenance} {
		if n := store.ComputeCount(name); n != 1 {
			t.Errorf("node %s computed %d times, want 1", name, n)
		}
	}
}

// TestComputeMatchesRun pins partial evaluation against the full run:
// every artefact a selective Compute returns is bit-identical to the
// same field of a full Run with the same options.
func TestComputeMatchesRun(t *testing.T) {
	ctx := context.Background()
	full, err := NewStudy(artefactTestOptions()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(artefactTestOptions())
	defer s.Close()
	partial, err := s.Compute(ctx, ArtefactProvenance, ArtefactEarnings)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(partial.Provenance, full.Provenance) {
		t.Error("partial Provenance differs from the full run")
	}
	if !reflect.DeepEqual(partial.Earnings, full.Earnings) {
		t.Error("partial Earnings differs from the full run")
	}
	if !reflect.DeepEqual(partial.CrawlStats, full.CrawlStats) {
		t.Error("partial CrawlStats differs from the full run")
	}
	// figure2+table5 needs neither the actor analysis nor Table 1.
	if partial.Actors.Profiles != nil || partial.Table1 != nil {
		t.Error("partial Results computed artefacts outside the selection")
	}
}

// TestMemoSharedAcrossStudies pins cross-study reuse: two studies
// with the same semantic options sharing one memo store compute every
// node once, and the second study's Results are bit-identical.
func TestMemoSharedAcrossStudies(t *testing.T) {
	ctx := context.Background()
	store := artefact.NewStore(0)

	s1 := NewStudy(artefactTestOptions())
	s1.UseMemo(store)
	want, err := s1.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := store.TotalComputes()

	// Different worker counts must share the memo: worker knobs are
	// excluded from node keys because they never move a result.
	opts := artefactTestOptions()
	opts.Workers = 2
	opts.CrawlConcurrency = 3
	s2 := NewStudy(opts)
	s2.UseMemo(store)
	got, err := s2.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("memoized run differs from the computing run")
	}
	if after := store.TotalComputes(); after != before {
		t.Errorf("warm run computed %d extra nodes, want 0", after-before)
	}
}

// TestComputeIdempotent pins repeat-Compute semantics on one study:
// the second call is answered entirely from the study's private memo
// — bit-identical Results, and in particular the same SnowballAdded
// (the snowball expansion, a side-effecting stage, runs exactly once).
func TestComputeIdempotent(t *testing.T) {
	ctx := context.Background()
	s := NewStudy(artefactTestOptions())
	defer s.Close()
	first, err := s.Compute(ctx, "crawl")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Compute(ctx, "crawl")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("second Compute on the same study differs from the first")
	}
	if first.Links.SnowballAdded == 0 || second.Links.SnowballAdded != first.Links.SnowballAdded {
		t.Errorf("SnowballAdded drifted across Computes: %d then %d",
			first.Links.SnowballAdded, second.Links.SnowballAdded)
	}
}

// TestResolveArtefacts covers normalization, ordering and rejection:
// only artefact names resolve, so a table name is unknown here.
func TestResolveArtefacts(t *testing.T) {
	all, err := ResolveArtefacts()
	if err != nil || len(all) != len(Artefacts()) {
		t.Fatalf("empty resolve = %v, %v", all, err)
	}
	// Names normalize: mixed case and stray whitespace resolve like
	// their canonical forms (the CLI -only path feeds raw user input).
	got, err := ResolveArtefacts("Actors", " provenance ", "provenance")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{ArtefactProvenance, ArtefactActors}) {
		t.Fatalf("resolve = %v", got)
	}
	for _, name := range []string{"table99", "table5", "overview"} {
		if _, err := ResolveArtefacts(name); err == nil {
			t.Fatalf("non-artefact name %q accepted", name)
		}
	}
}

// TestCrawledImagesStayImmutable pins the contract of the
// content-addressed crawl: a pack member that recurs across the crawl
// is one shared *imagex.Image, so no downstream node may write to a
// crawled image. It checksums every crawled image right after the
// crawl node, runs every downstream node, and requires each checksum
// unchanged and each carried digest (hash and skin statistics) still
// equal to a fresh computation.
func TestCrawledImagesStayImmutable(t *testing.T) {
	s := NewStudy(artefactTestOptions())
	defer s.Close()
	s.UseMemo(artefact.NewStore(0))
	ctx := context.Background()
	vals, err := s.evaluate(ctx, []string{ArtefactCrawl})
	if err != nil {
		t.Fatal(err)
	}
	results := vals[ArtefactCrawl].(crawlValue).results
	sums := make(map[*imagex.Image]uint32)
	shared := 0
	for _, r := range results {
		if len(r.Digests) != len(r.Images) {
			t.Fatalf("result carries %d digests for %d images", len(r.Digests), len(r.Images))
		}
		for _, im := range r.Images {
			if _, dup := sums[im]; dup {
				shared++
				continue
			}
			sums[im] = crc32.ChecksumIEEE(im.Pix)
		}
	}
	if shared == 0 {
		t.Fatal("no crawled image is shared: the test world exercises nothing")
	}
	check := func(after string) {
		t.Helper()
		for _, r := range results {
			for i, im := range r.Images {
				if crc32.ChecksumIEEE(im.Pix) != sums[im] {
					t.Fatalf("after %s, task %s: a downstream node wrote to a crawled image", after, r.Task.Link.URL)
				}
				if r.Digests[i].Hash != imagex.Hash128Of(im) {
					t.Fatalf("after %s, task %s: carried hash no longer matches image %d", after, r.Task.Link.URL, i)
				}
				if r.Digests[i].Skin != im.SkinStats() {
					t.Fatalf("after %s, task %s: carried skin statistics no longer match image %d", after, r.Task.Link.URL, i)
				}
			}
		}
	}
	for _, name := range []string{ArtefactPhotoDNA, ArtefactNSFV, ArtefactProvenance, ArtefactEarnings} {
		vals, err := s.evaluate(ctx, []string{name})
		if err != nil {
			t.Fatal(err)
		}
		check(name)
		if name == ArtefactPhotoDNA {
			for _, si := range vals[name].(photodnaValue).safe {
				if si.Digest != imagex.DigestOf(si.Image) {
					t.Fatalf("safe image from %s carries a digest that does not match it", si.Task.Link.URL)
				}
			}
		}
	}
}
