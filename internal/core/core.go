// Package core orchestrates the complete study: the Figure 1 pipeline
// (thread selection → TOP classification → URL extraction → crawling →
// PhotoDNA filtering → NSFV classification → reverse image search →
// domain classification), the §5 financial analysis and the §6 actor
// analysis. Study is the public entry point used by the command-line
// tools, the examples and the benchmark harness.
package core

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/actors"
	"repro/internal/artefact"
	"repro/internal/crawler"
	"repro/internal/domaincls"
	"repro/internal/earnings"
	"repro/internal/faultx"
	"repro/internal/forum"
	"repro/internal/imagex"
	"repro/internal/ml"
	"repro/internal/nsfv"
	"repro/internal/photodna"
	"repro/internal/pipeline"
	"repro/internal/reverse"
	"repro/internal/socialgraph"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/topclass"
	"repro/internal/urlx"
)

// Options configures a Study run.
type Options struct {
	// Synth configures world generation.
	Synth synth.Config
	// AnnotationSize is the size of the manually-annotated thread
	// corpus (the paper used 1 000; scaled worlds may use less).
	AnnotationSize int
	// CrawlConcurrency bounds the crawler's workers.
	CrawlConcurrency int
	// Workers bounds each stage method's worker pool (default:
	// GOMAXPROCS). The crawl stage uses CrawlConcurrency. Worker counts
	// never move a result: Workers 1 with CrawlConcurrency 1 is the
	// in-process reference every other count must reproduce.
	Workers int
	// Faults is a faultx profile injected into the in-process crawl
	// seam (see faultx.ParseProfile), "" for none. It is part of the
	// study's identity — artefact keys include it — because a faulted
	// crawl may legitimately produce a different (degraded) corpus.
	// Validate at the API boundary: an unparseable profile here is
	// ignored.
	Faults string
}

// DefaultOptions returns the study's standard parameters.
func DefaultOptions() Options {
	return Options{
		Synth:            synth.DefaultConfig(),
		AnnotationSize:   1000,
		CrawlConcurrency: 8,
	}
}

const (
	// trainFrac is the §4.1 train/test split of the annotated sample
	// (paper: 80% train, 20% test).
	trainFrac = 0.8
	// imagesPerPack is how many images per pack go to reverse search
	// (§4.5: the lowest, median and highest NSFW score).
	imagesPerPack = 3
)

// Study holds the generated world and everything derived from it.
type Study struct {
	Opts  Options
	World *synth.World

	serverMu sync.Mutex
	server   *httptest.Server

	// backend is how the study reaches the web substrate (crawl,
	// reverse search, Wayback, snowball visits). Defaults to the
	// in-process world; UseBackend swaps in an HTTP backend.
	backend Backend

	// memo, when set via UseMemo, shares artefact values across runs
	// and studies under their canonical node keys; otherwise the
	// study memoizes privately into localMemo, so repeated Compute
	// calls on one study are idempotent (the snowball expansion and
	// every other node run at most once per semantic key).
	memo      *artefact.Store
	localMemo *artefact.Store

	// faultInj injects the parsed Opts.Faults plan into the in-process
	// crawl transport; nil when fault injection is off.
	faultInj *faultx.Injector
}

// NewStudy generates the world and prepares the study.
func NewStudy(opts Options) *Study {
	return NewStudyWithWorld(opts, nil)
}

// NewStudyContext is NewStudy under a caller context: world generation
// records its per-generator child spans on any tracer in ctx and fans
// out over opts.Synth.Workers.
func NewStudyContext(ctx context.Context, opts Options) *Study {
	return NewStudyWithWorldContext(ctx, opts, nil)
}

// NewStudyWithWorld prepares a study over an already-generated world,
// skipping generation — the seam the sweep engine's world cache uses
// to share one immutable world across cells that differ only in
// annotation size, worker counts or crawl concurrency. Generation is
// deterministic in the canonical config, so a shared world and a
// fresh one produce bit-identical Results. A nil world, or one whose
// config does not match opts.Synth, is generated from opts.Synth as
// NewStudy would.
//
// A run never mutates the world (DESIGN.md §3: concurrency safety
// rests on a frozen world), so the same *synth.World may back any
// number of concurrent studies.
func NewStudyWithWorld(opts Options, world *synth.World) *Study {
	//lint:ignore ctxhygiene the context only scopes world generation; context-aware callers use NewStudyWithWorldContext.
	return NewStudyWithWorldContext(context.Background(), opts, world)
}

// NewStudyWithWorldContext is NewStudyWithWorld under a caller
// context, used when generation should trace into ctx's span tree.
func NewStudyWithWorldContext(ctx context.Context, opts Options, world *synth.World) *Study {
	if opts.AnnotationSize <= 0 {
		opts.AnnotationSize = 1000
	}
	if opts.CrawlConcurrency <= 0 {
		opts.CrawlConcurrency = 8
	}
	if world == nil || world.Config != opts.Synth.Canonical() {
		world = synth.GenerateContext(ctx, opts.Synth)
	}
	s := &Study{
		Opts:      opts,
		World:     world,
		localMemo: artefact.NewStore(0),
	}
	if plan, err := faultx.ParseProfile(opts.Faults); err == nil {
		s.faultInj = faultx.NewInjector(plan)
	}
	s.backend = &worldBackend{study: s}
	return s
}

// UseBackend replaces the study's substrate backend — e.g. with an
// HTTPBackend so the crawl, reverse search and Wayback lookups run
// against live services instead of the in-process world. Must be
// called before the first run.
func (s *Study) UseBackend(b Backend) {
	s.backend = b
}

// Close shuts down the embedded hosting server if one was started and
// releases backend resources.
func (s *Study) Close() {
	s.backend.Close()
	s.serverMu.Lock()
	defer s.serverMu.Unlock()
	if s.server != nil {
		s.server.Close()
		s.server = nil
	}
}

// hostingServer lazily starts the hosting world as a live HTTP
// server. Safe for concurrent use: the image and earnings branches of
// Run both crawl against it.
func (s *Study) hostingServer() *httptest.Server {
	s.serverMu.Lock()
	defer s.serverMu.Unlock()
	if s.server == nil {
		s.server = httptest.NewServer(s.World.Web)
		// Keep one idle connection per crawl worker of the two crawls
		// that may share the server (the image crawl and the earnings
		// proof crawl): at the transport's default of two, a crawl
		// redials most of its connections.
		s.server.Client().Transport.(*http.Transport).MaxIdleConnsPerHost =
			2 * s.Opts.CrawlConcurrency
	}
	return s.server
}

// --- Step 0: dataset selection (§3, Table 1) ---------------------------

// ForumOverviewRow is one row of Table 1.
type ForumOverviewRow struct {
	Forum     string
	Threads   int
	Posts     int
	FirstPost time.Time
	TOPs      int // filled after classification
	Actors    int
}

// SelectEWhoring performs the paper's dataset selection: every thread
// whose heading contains 'ewhor' or 'e-whor' (lowercase comparison)
// plus every thread of the Hackforums eWhoring board.
func (s *Study) SelectEWhoring() []forum.ThreadID {
	set := forum.NewThreadSet(s.World.Store.SearchHeadings(topclass.EWhoringKeywords...)...)
	set.Add(s.World.Store.ThreadsInBoard(s.World.HFEWhoring)...)
	return set.Sorted()
}

// ForumOverview computes Table 1 (without the TOP column; merge with
// classification results for the full table).
func (s *Study) ForumOverview(ew []forum.ThreadID) []ForumOverviewRow {
	store := s.World.Store
	byForum := make(map[forum.ForumID]*ForumOverviewRow)
	actorsSeen := make(map[forum.ForumID]map[forum.ActorID]struct{})
	for _, tid := range ew {
		th := store.Thread(tid)
		row, ok := byForum[th.Forum]
		if !ok {
			row = &ForumOverviewRow{Forum: store.Forum(th.Forum).Name}
			byForum[th.Forum] = row
			actorsSeen[th.Forum] = make(map[forum.ActorID]struct{})
		}
		row.Threads++
		for _, p := range store.PostsInThread(tid) {
			row.Posts++
			actorsSeen[th.Forum][p.Author] = struct{}{}
			if row.FirstPost.IsZero() || p.Created.Before(row.FirstPost) {
				row.FirstPost = p.Created
			}
		}
	}
	var rows []ForumOverviewRow
	for fid, row := range byForum {
		row.Actors = len(actorsSeen[fid])
		rows = append(rows, *row)
	}
	// Ties broken by name so the table is deterministic: rows are
	// assembled from a map.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Threads != rows[j].Threads {
			return rows[i].Threads > rows[j].Threads
		}
		return rows[i].Forum < rows[j].Forum
	})
	return rows
}

// --- Step 1: TOP classification (§4.1) ---------------------------------

// ClassifierResult carries the §4.1 evaluation and corpus sweep.
type ClassifierResult struct {
	Annotated  int
	TOPsInAnno int
	Metrics    ml.Metrics
	Extract    topclass.ExtractResult
	// TOPsByForum supports Table 1's TOP column.
	TOPsByForum map[string]int
}

// TrainAndExtract reproduces §4.1: annotate a thread sample, train on
// trainFrac of it against the default hosting whitelist, evaluate on
// the rest, then sweep the whole eWhoring corpus with the hybrid
// classifier.
func (s *Study) TrainAndExtract(ew []forum.ThreadID) (ClassifierResult, error) {
	n := s.Opts.AnnotationSize
	if n > len(ew) {
		n = len(ew)
	}
	sample := s.World.AnnotationSample(n, s.Opts.Synth.Seed+1)
	labeled := make([]topclass.Labeled, len(sample))
	tops := 0
	for i, l := range sample {
		labeled[i] = topclass.Labeled{Thread: l.Thread, IsTOP: l.IsTOP}
		if l.IsTOP {
			tops++
		}
	}
	cut := int(trainFrac * float64(len(labeled)))
	if cut < 1 || cut >= len(labeled) {
		return ClassifierResult{}, fmt.Errorf("core: annotation sample too small (%d)", len(labeled))
	}
	train, test := labeled[:cut], labeled[cut:]
	hybrid, err := topclass.Train(s.World.Store, urlx.DefaultWhitelist(), train, ml.DefaultSVMConfig())
	if err != nil {
		return ClassifierResult{}, err
	}
	res := ClassifierResult{
		Annotated:   len(labeled),
		TOPsInAnno:  tops,
		Metrics:     hybrid.Evaluate(test),
		Extract:     hybrid.Extract(ew),
		TOPsByForum: make(map[string]int),
	}
	for _, tid := range res.Extract.TOPs {
		f := s.World.Store.Forum(s.World.Store.Thread(tid).Forum)
		res.TOPsByForum[f.Name]++
	}
	return res, nil
}

// --- Step 2: URL extraction (§4.2, Tables 3 and 4) ---------------------

// LinkExtraction is the outcome of sweeping TOPs for hosting links.
type LinkExtraction struct {
	// Links are all whitelisted links with provenance.
	Tasks []crawler.Task
	// ImageSharing and CloudStorage are the Table 3/4 tallies.
	ImageSharing []urlx.DomainCount
	CloudStorage []urlx.DomainCount
	// ThreadsWithLinks counts TOPs that yielded at least one link
	// (paper: 774 of 4 137, 18.71%).
	ThreadsWithLinks int
	// SnowballAdded is the number of domains the snowball sampling
	// added to the whitelist.
	SnowballAdded int
}

// ExtractLinks pulls URLs from every post of the given TOPs,
// snowball-expands a copy of the default whitelist against the live
// web, and classifies the links. It returns the expanded whitelist
// too: the §5 analysis classifies its links against the same list.
func (s *Study) ExtractLinks(ctx context.Context, tops []forum.ThreadID) (LinkExtraction, *urlx.Whitelist) {
	store := s.World.Store
	type located struct {
		url    string
		thread forum.ThreadID
		post   forum.PostID
		author forum.ActorID
	}
	var all []located
	var urls []string
	for _, tid := range tops {
		for _, p := range store.PostsInThread(tid) {
			for _, u := range urlx.Extract(p.Body) {
				all = append(all, located{u, tid, p.ID, p.Author})
				urls = append(urls, u)
			}
		}
	}
	// Snowball sampling against site landing pages.
	visit := func(domain string) (urlx.Kind, bool) { return s.backend.VisitKind(ctx, domain) }
	whitelist := urlx.DefaultWhitelist()
	added := urlx.Snowball(whitelist, urls, visit, 5)

	out := LinkExtraction{SnowballAdded: added}
	var links []urlx.Link
	withLinks := make(map[forum.ThreadID]struct{})
	for _, l := range all {
		link := whitelist.Classify(l.url)
		if link.Kind == urlx.KindUnknown {
			continue
		}
		links = append(links, link)
		withLinks[l.thread] = struct{}{}
		out.Tasks = append(out.Tasks, crawler.Task{
			Link: link, Thread: l.thread, Post: l.post, Author: l.author,
		})
	}
	out.ThreadsWithLinks = len(withLinks)
	out.ImageSharing = urlx.SortedCounts(urlx.CountByDomain(links, urlx.KindImageSharing))
	out.CloudStorage = urlx.SortedCounts(urlx.CountByDomain(links, urlx.KindCloudStorage))
	return out, whitelist
}

// --- Step 3: crawling (§4.2) -------------------------------------------

// CrawlLinks downloads every task over live HTTP through the study's
// backend (embedded hosting server by default; remote services with an
// HTTPBackend) under Opts.CrawlConcurrency workers, returning results
// in task order.
func (s *Study) CrawlLinks(ctx context.Context, tasks []crawler.Task) ([]crawler.Result, error) {
	results := pipeline.Collect(s.backend.CrawlStream(ctx, tasks))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// --- Step 4: PhotoDNA gate (§4.3) ---------------------------------------

// SafeImage is a downloaded image that passed the hashlist gate.
type SafeImage struct {
	Image  *imagex.Image
	Task   crawler.Task
	IsPack bool
}

// FilterAbuse passes every downloaded image through the PhotoDNA
// filter. Matches are reported to a hotline of the call's own (with
// reverse-search URL reports, as in §4.3), summarized, and withheld
// from the returned set. Results are hashed and matched under
// Opts.Workers; reports and the safe set fold in task order.
func (s *Study) FilterAbuse(ctx context.Context, results []crawler.Result) ([]SafeImage, photodna.ActionSummary, error) {
	hotline := photodna.NewHotline()
	var safe []SafeImage
	outcomes := pipeline.Map(ctx, "photodna §4.3", s.Opts.Workers,
		pipeline.Emit(ctx, results),
		func(ctx context.Context, r crawler.Result) matchOutcome { return s.matchResult(ctx, r) })
	for o := range outcomes {
		for _, rep := range o.reports {
			hotline.Report(rep)
		}
		safe = append(safe, o.safe...)
	}
	if err := ctx.Err(); err != nil {
		return nil, photodna.ActionSummary{}, err
	}
	return safe, hotline.Summarize(), nil
}

// matchOutcome partitions one crawl result's images into the safe set
// and the hotline reports its matches produced.
type matchOutcome struct {
	safe    []SafeImage
	reports []photodna.MatchReport
}

// matchResult runs the PhotoDNA gate over one crawl result. Each image
// is hashed exactly once; matches carry the URLs where reverse search
// finds the same image. Pure: reporting is the caller's job, so the
// gate can fan out across workers while reports are filed in task
// order.
func (s *Study) matchResult(ctx context.Context, r crawler.Result) matchOutcome {
	var o matchOutcome
	if r.Outcome != crawler.OutcomeOK || len(r.Images) == 0 {
		return o
	}
	// Nearly every image passes the gate, so size the safe set for all
	// of them up front instead of growing it append by append.
	o.safe = make([]SafeImage, 0, len(r.Images))
	for _, im := range r.Images {
		h := photodna.HashImage(im)
		entry, hit := s.World.HashList.MatchHash(h)
		if !hit {
			o.safe = append(o.safe, SafeImage{Image: im, Task: r.Task, IsPack: r.IsPack})
			continue
		}
		// Report with the URLs where reverse search finds the same
		// image, reusing the hash already computed for the gate.
		matches := s.backend.SearchHash(ctx, h)
		var urlReports []photodna.URLReport
		if len(matches) > 0 {
			urlReports = make([]photodna.URLReport, 0, len(matches))
		}
		for _, m := range matches {
			urlReports = append(urlReports, photodna.URLReport{
				URL:      m.URL,
				Region:   s.World.RegionOf(m.Domain),
				SiteType: s.World.SiteTypeOf(m.Domain),
			})
		}
		o.reports = append(o.reports, photodna.MatchReport{
			Entry:        entry,
			SourceThread: int(r.Task.Thread),
			SourcePost:   int(r.Task.Post),
			URLs:         urlReports,
		})
	}
	return o
}

// --- Step 5: NSFV classification (§4.4) ----------------------------------

// NSFVResult splits the image-site downloads.
type NSFVResult struct {
	Previews []SafeImage // NSFV → treated as pack previews
	SFV      []SafeImage // error banners, directory screenshots, ...
	// PackImages are pack-archive members (always handled
	// programmatically; never viewed).
	PackImages []SafeImage
}

// nsfvClass is one safe image with its NSFV verdict.
type nsfvClass struct {
	si    SafeImage
	class int
}

// NSFV verdict classes.
const (
	classPack = iota
	classSFV
	classPreview
)

// ClassifyNSFV runs Algorithm 1 over the image-site downloads: the
// verdicts fan out under Opts.Workers, and the split folds in input
// order.
func (s *Study) ClassifyNSFV(ctx context.Context, safe []SafeImage) (NSFVResult, error) {
	clf := nsfv.New()
	classed := pipeline.Map(ctx, "nsfv §4.4", s.Opts.Workers,
		pipeline.Emit(ctx, safe),
		func(_ context.Context, si SafeImage) nsfvClass {
			switch {
			case si.IsPack:
				return nsfvClass{si, classPack}
			case clf.IsSFV(si.Image):
				return nsfvClass{si, classSFV}
			default:
				return nsfvClass{si, classPreview}
			}
		})
	var out NSFVResult
	for c := range classed {
		switch c.class {
		case classPack:
			out.PackImages = append(out.PackImages, c.si)
		case classSFV:
			out.SFV = append(out.SFV, c.si)
		default:
			out.Previews = append(out.Previews, c.si)
		}
	}
	if err := ctx.Err(); err != nil {
		return NSFVResult{}, err
	}
	return out, nil
}

// --- Step 6: reverse search and provenance (§4.5, Tables 5 and 6) -------

// ReverseRow is one row of Table 5.
type ReverseRow struct {
	Corpus     string
	Total      int
	Matched    int
	SeenBefore int
	AvgMatches float64 // over matched images
	MaxMatches int
}

// ProvenanceResult carries Table 5, the matched domains and Table 6.
type ProvenanceResult struct {
	Packs     ReverseRow
	Previews  ReverseRow
	ZeroMatch int // packs whose sampled images all have zero matches
	Domains   []string
	Table6    map[string][]domaincls.TagCount
}

// provItem is one image headed for reverse search: a sampled pack
// image or a preview.
type provItem struct {
	si   SafeImage
	pack bool
}

// provSearched pairs a search outcome with the row it belongs to.
type provSearched struct {
	pack bool
	out  searchOutcome
}

// Provenance reverse-searches all previews and imagesPerPack images
// per pack (lowest, median and highest NSFW score, per the paper),
// checks Seen-Before against crawl dates and the Wayback archive, and
// classifies the matched domains with the three classifiers. The
// searches fan out under Opts.Workers; the fold consumes outcomes in
// image order (sampled pack images first, previews second).
func (s *Study) Provenance(ctx context.Context, n NSFVResult) (ProvenanceResult, error) {
	var items []provItem
	for _, si := range samplePackImages(n.PackImages, imagesPerPack) {
		items = append(items, provItem{si, true})
	}
	for _, si := range n.Previews {
		items = append(items, provItem{si, false})
	}
	searched := pipeline.Map(ctx, "reverse §4.5", s.Opts.Workers,
		pipeline.Emit(ctx, items),
		func(ctx context.Context, it provItem) provSearched {
			return provSearched{it.pack, s.searchImage(ctx, it.si)}
		})
	fold := newProvFold()
	for o := range searched {
		if o.pack {
			fold.addPack(o.out)
		} else {
			fold.addPreview(o.out)
		}
	}
	if err := ctx.Err(); err != nil {
		return ProvenanceResult{}, err
	}
	return fold.finish(s), nil
}

// searchOutcome is the per-image part of provenance: the reverse-search
// and Seen-Before result for one image. Pure, so the search can fan
// out across workers while rows fold in image order.
type searchOutcome struct {
	thread  forum.ThreadID
	matches int
	seen    bool
	domains []string
}

// searchImage reverse-searches one image and checks Seen-Before
// against the post date and the Wayback archive.
func (s *Study) searchImage(ctx context.Context, si SafeImage) searchOutcome {
	posted := s.World.Store.Post(si.Task.Post).Created
	matches := s.backend.SearchHash(ctx, imagex.Hash128Of(si.Image))
	o := searchOutcome{thread: si.Task.Thread, matches: len(matches)}
	if len(matches) == 0 {
		return o
	}
	o.seen = reverse.SeenBefore(matches, posted)
	if !o.seen {
		for _, m := range matches {
			if s.backend.WaybackSeenBefore(ctx, m.URL, posted) {
				o.seen = true
				break
			}
		}
	}
	for _, m := range matches {
		o.domains = append(o.domains, m.Domain)
	}
	return o
}

// provFold accumulates search outcomes into a ProvenanceResult. The
// fold is order-sensitive (AvgMatches sums floats), so Provenance feeds
// it in image order whatever the worker count.
type provFold struct {
	res       ProvenanceResult
	domains   map[string]struct{}
	perThread map[forum.ThreadID][]int
}

func newProvFold() *provFold {
	return &provFold{
		res: ProvenanceResult{
			Packs:    ReverseRow{Corpus: "packs"},
			Previews: ReverseRow{Corpus: "previews"},
		},
		domains:   make(map[string]struct{}),
		perThread: make(map[forum.ThreadID][]int),
	}
}

// addPack folds a sampled pack image's outcome (tracked per thread for
// the zero-match count).
func (f *provFold) addPack(o searchOutcome) {
	f.perThread[o.thread] = append(f.perThread[o.thread], o.matches)
	f.add(&f.res.Packs, o)
}

// addPreview folds a preview image's outcome.
func (f *provFold) addPreview(o searchOutcome) {
	f.add(&f.res.Previews, o)
}

func (f *provFold) add(row *ReverseRow, o searchOutcome) {
	row.Total++
	if o.matches == 0 {
		return
	}
	row.Matched++
	row.AvgMatches += float64(o.matches)
	if o.matches > row.MaxMatches {
		row.MaxMatches = o.matches
	}
	if o.seen {
		row.SeenBefore++
	}
	for _, d := range o.domains {
		f.domains[d] = struct{}{}
	}
}

// finish normalises the rows, counts zero-match packs and classifies
// the matched domains.
func (f *provFold) finish(s *Study) ProvenanceResult {
	res := f.res
	for _, row := range []*ReverseRow{&res.Packs, &res.Previews} {
		if row.Matched > 0 {
			row.AvgMatches /= float64(row.Matched)
		}
	}
	// Zero-match packs: sampled threads whose every sampled image had
	// zero matches.
	for _, counts := range f.perThread {
		zero := true
		for _, c := range counts {
			if c > 0 {
				zero = false
				break
			}
		}
		if zero {
			res.ZeroMatch++
		}
	}
	res.Domains = make([]string, 0, len(f.domains))
	for d := range f.domains {
		res.Domains = append(res.Domains, d)
	}
	sort.Strings(res.Domains)
	res.Table6 = map[string][]domaincls.TagCount{
		"McAfee":     domaincls.Tally(domaincls.NewMcAfee(s.World.Directory), res.Domains, 85),
		"VirusTotal": domaincls.Tally(domaincls.NewVirusTotal(s.World.Directory), res.Domains, 85),
		"OpenDNS":    domaincls.Tally(domaincls.NewOpenDNS(s.World.Directory), res.Domains, 85),
	}
	return res
}

// samplePackImages picks k images per (thread, pack link): the lowest,
// median and highest NSFW-scoring images, as the paper samples.
func samplePackImages(packImages []SafeImage, k int) []SafeImage {
	type packKey struct {
		thread forum.ThreadID
		post   forum.PostID
		url    string
	}
	groups := make(map[packKey][]SafeImage)
	var order []packKey
	for _, si := range packImages {
		key := packKey{si.Task.Thread, si.Task.Post, si.Task.Link.URL}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], si)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].thread != order[j].thread {
			return order[i].thread < order[j].thread
		}
		return order[i].url < order[j].url
	})
	scorer := nsfv.New().Scorer
	var out []SafeImage
	type scored struct {
		si    SafeImage
		score float64
	}
	for _, key := range order {
		// Score each image once; the comparator would otherwise rescore
		// (a full raster traversal) on every comparison.
		imgs := make([]scored, len(groups[key]))
		for i, si := range groups[key] {
			imgs[i] = scored{si: si, score: scorer.Score(si.Image)}
		}
		sort.Slice(imgs, func(i, j int) bool {
			return imgs[i].score < imgs[j].score
		})
		picks := []int{0, len(imgs) / 2, len(imgs) - 1}
		if k < len(picks) {
			picks = picks[:k]
		}
		seen := map[int]struct{}{}
		for _, p := range picks {
			if _, dup := seen[p]; !dup {
				seen[p] = struct{}{}
				out = append(out, imgs[p].si)
			}
		}
	}
	return out
}

// --- §5: financial analysis ---------------------------------------------

// EarningsResult carries the §5 outputs.
type EarningsResult struct {
	ThreadsMatched int
	URLs           int
	Downloaded     int
	FilteredNSFV   int
	NotProofs      int
	Proofs         []earnings.Proof
	Summary        earnings.Summary
	// PerActorUSD / PerActorProofs feed Figure 2.
	PerActorUSD    []float64
	PerActorProofs []float64
	// Monthly series per platform feed Figure 3.
	MonthlyAGC    *stats.MonthlySeries
	MonthlyPayPal *stats.MonthlySeries
	// CrawlCoverage is the §5 crawl's degradation ledger: which hosts
	// the proof-image crawl lost, if any.
	CrawlCoverage crawler.Coverage
}

// AnalyzeEarnings reproduces §5.1-5.2: locate earnings threads
// (heading keywords within the eWhoring corpus plus the Bragging
// Rights board), extract image links classified against whitelist
// (the study passes the one ExtractLinks snowballed), crawl them, gate
// through PhotoDNA and NSFV, OCR-annotate the survivors into
// structured proofs, and aggregate.
func (s *Study) AnalyzeEarnings(ctx context.Context, ew []forum.ThreadID, whitelist *urlx.Whitelist) (EarningsResult, error) {
	store := s.World.Store
	var res EarningsResult

	// Thread selection: "threads containing the words 'you make' or
	// 'earn' in their heading" plus the Bragging Rights board.
	selected := forum.NewThreadSet()
	for _, tid := range ew {
		h := strings.ToLower(store.Thread(tid).Heading)
		if strings.Contains(h, "you make") || strings.Contains(h, "earn") ||
			strings.Contains(h, "profit") || strings.Contains(h, "proof") {
			selected.Add(tid)
		}
	}
	selected.Add(store.ThreadsInBoard(s.World.HFBragging)...)
	res.ThreadsMatched = selected.Len()

	// Extract image-sharing links from the posts.
	var tasks []crawler.Task
	for _, tid := range selected.Sorted() {
		for _, p := range store.PostsInThread(tid) {
			for _, u := range urlx.Extract(p.Body) {
				link := whitelist.Classify(u)
				if link.Kind != urlx.KindImageSharing {
					continue
				}
				tasks = append(tasks, crawler.Task{Link: link, Thread: tid, Post: p.ID, Author: p.Author})
			}
		}
	}
	res.URLs = len(tasks)

	results, err := s.CrawlLinks(ctx, tasks)
	if err != nil {
		return EarningsResult{}, err
	}
	res.CrawlCoverage = crawler.CoverageOf(results)
	safe, _, err := s.FilterAbuse(ctx, results)
	if err != nil {
		return EarningsResult{}, err
	}
	for _, r := range results {
		if r.Outcome == crawler.OutcomeOK {
			res.Downloaded += len(r.Images)
		}
	}
	clf := nsfv.New()
	res.MonthlyAGC = stats.NewMonthlySeries()
	res.MonthlyPayPal = stats.NewMonthlySeries()
	for _, si := range safe {
		if !clf.IsSFV(si.Image) {
			res.FilteredNSFV++
			continue
		}
		posted := store.Post(si.Task.Post).Created
		proof, err := earnings.AnnotateImage(si.Image, posted)
		if err != nil {
			res.NotProofs++
			continue
		}
		proof.Actor = si.Task.Author
		proof.Post = si.Task.Post
		res.Proofs = append(res.Proofs, proof)
		switch proof.Platform {
		case earnings.PlatformAGC:
			res.MonthlyAGC.Add(posted)
		case earnings.PlatformPayPal:
			res.MonthlyPayPal.Add(posted)
		}
	}
	res.Summary = earnings.Summarize(res.Proofs)
	for _, a := range earnings.AggregateByActor(res.Proofs) {
		res.PerActorUSD = append(res.PerActorUSD, a.TotalUSD)
		res.PerActorProofs = append(res.PerActorProofs, float64(a.Proofs))
	}
	return res, nil
}

// HeavyPosterThreshold scales the paper's ">50 eWhoring posts" cut to
// the world's scale.
func (s *Study) HeavyPosterThreshold() int {
	thr := int(50 * s.Opts.Synth.Scale * 4)
	if thr < 3 {
		thr = 3
	}
	if thr > 50 {
		thr = 50
	}
	return thr
}

// ExchangeAnalysis computes Table 7 over the Currency Exchange
// threads of actors above the heavy-poster threshold, posted after
// they started eWhoring.
func (s *Study) ExchangeAnalysis(profiles map[forum.ActorID]*actors.Profile) earnings.ExchangeTable {
	store := s.World.Store
	thr := s.HeavyPosterThreshold()
	var headings []string
	for _, tid := range store.ThreadsInBoard(s.World.HFCurrency) {
		th := store.Thread(tid)
		p := profiles[th.Author]
		if p == nil || p.EwPosts < thr {
			continue
		}
		if th.Created.Before(p.FirstEw) {
			continue
		}
		headings = append(headings, th.Heading)
	}
	return earnings.TallyExchange(headings)
}

// --- §6: actor analysis ---------------------------------------------------

// ActorAnalysis carries the §6 outputs.
type ActorAnalysis struct {
	Profiles map[forum.ActorID]*actors.Profile
	Table8   []actors.BucketRow
	// Samples per bucket threshold feed Figure 4.
	Fig4 map[int]actors.Samples
	Key  actors.KeyActors
	// Inputs holds the per-criterion scores (exported for reporting).
	Inputs  actors.KeyActorInputs
	Table9  map[actors.Group]map[actors.Group]int
	Table10 []actors.GroupStats
	Fig5    map[actors.InterestPhase]actors.InterestProfile
}

// AnalyzeActors reproduces §6 end-to-end. tops lists the classified
// TOPs (for the pack-sharer criterion); proofs the parsed earnings.
func (s *Study) AnalyzeActors(ew []forum.ThreadID, tops []forum.ThreadID, proofs []earnings.Proof) ActorAnalysis {
	store := s.World.Store
	out := ActorAnalysis{}
	out.Profiles = actors.BuildProfiles(store, ew)
	out.Table8 = actors.Buckets(out.Profiles, nil)
	out.Fig4 = map[int]actors.Samples{}
	for _, thr := range actors.Table8Thresholds {
		out.Fig4[thr] = actors.CollectSamples(out.Profiles, thr)
	}

	graph := socialgraph.Build(store, ew)
	packs := make(map[forum.ActorID]int)
	for _, tid := range tops {
		packs[store.Thread(tid).Author]++
	}
	earn := make(map[forum.ActorID]float64)
	for _, a := range earnings.AggregateByActor(proofs) {
		earn[a.Actor] = a.TotalUSD
	}
	scores, counts := actors.ExchangeScores(store, s.World.HFCurrency, out.Profiles)
	out.Inputs = actors.KeyActorInputs{
		PacksShared:     packs,
		EarningsUSD:     earn,
		Popularity:      socialgraph.ComputePopularity(store, ew),
		Centrality:      graph.EigenvectorCentrality(80, 1e-9),
		ExchangeScore:   scores,
		ExchangeThreads: counts,
	}
	sel := actors.DefaultSelection()
	if s.Opts.Synth.Scale < 0.5 {
		// Scale the top-k and pack minimum so small worlds still
		// produce multi-member groups.
		sel.TopK = int(50 * s.Opts.Synth.Scale * 10)
		if sel.TopK < 10 {
			sel.TopK = 10
		}
		if sel.TopK > 50 {
			sel.TopK = 50
		}
		sel.MinPacks = 2
	}
	out.Key = actors.SelectKeyActors(out.Inputs, sel)
	out.Table9 = out.Key.Intersections()
	out.Table10 = out.Key.GroupCharacteristics(out.Profiles, out.Inputs)
	out.Fig5 = actors.Interests(store, out.Key.All, out.Profiles,
		forum.NewThreadSet(ew...), "Lounge")
	return out
}

// --- Full run --------------------------------------------------------------

// Results bundles every table and figure of the study.
type Results struct {
	EWhoringThreads []forum.ThreadID
	Table1          []ForumOverviewRow
	Classifier      ClassifierResult
	Links           LinkExtraction
	CrawlStats      crawler.Stats
	PhotoDNA        photodna.ActionSummary
	NSFV            NSFVResult
	Provenance      ProvenanceResult
	Earnings        EarningsResult
	Table7          earnings.ExchangeTable
	Actors          ActorAnalysis
}

// Degraded reports whether any crawl in the study lost tasks to
// exhausted or short-circuited hosts — the signal the /v1/study
// envelope and the report surface as graceful degradation rather
// than failure.
func (r *Results) Degraded() bool {
	return r.CrawlStats.Coverage.Degraded || r.Earnings.CrawlCoverage.Degraded
}

// Run executes the complete study: it computes every artefact of the
// graph, then releases the study's backend. Independent nodes (the
// §4.2-§4.5 image chain and the §5/§6 branch) run concurrently, and
// each stage method folds its fanned-out items in input order, so
// Results depend on the options and never on the worker counts
// (TestRunWorkersEquivalence pins it). Per-node and per-stage timings
// are spans on the context tracer.
//
// When a memo store is attached (UseMemo), node values are reused
// from — and published to — it under their canonical keys.
func (s *Study) Run(ctx context.Context) (*Results, error) {
	defer s.Close()
	return s.Compute(ctx)
}
