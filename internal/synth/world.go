package synth

import (
	"context"
	"math"
	"time"

	"repro/internal/domaincls"
	"repro/internal/earnings"
	"repro/internal/forum"
	"repro/internal/hosting"
	"repro/internal/imagex"
	"repro/internal/photodna"
	"repro/internal/randx"
	"repro/internal/reverse"
	"repro/internal/tracex"
	"repro/internal/wayback"
)

// ThreadKind is the ground-truth type of a generated thread.
type ThreadKind int

// Thread kinds.
const (
	// KindDiscussion: general eWhoring chatter.
	KindDiscussion ThreadKind = iota
	// KindTOP: a Thread Offering Packs.
	KindTOP
	// KindRequest: asking for packs/advice (the classifier must not
	// confuse these with TOPs).
	KindRequest
	// KindTutorial: guides and how-tos.
	KindTutorial
	// KindEarnings: "post your earnings" threads carrying proofs.
	KindEarnings
	// KindExchange: Currency Exchange board threads ([H]/[W]).
	KindExchange
	// KindBackground: non-eWhoring filler threads in other boards.
	KindBackground
)

// String names the kind.
func (k ThreadKind) String() string {
	switch k {
	case KindTOP:
		return "TOP"
	case KindRequest:
		return "request"
	case KindTutorial:
		return "tutorial"
	case KindEarnings:
		return "earnings"
	case KindExchange:
		return "exchange"
	case KindBackground:
		return "background"
	default:
		return "discussion"
	}
}

// TOPTruth is the ground truth of one Thread Offering Packs.
type TOPTruth struct {
	// Free: the links are openly posted in the first post; locked
	// TOPs require replies or payment and expose preview links only.
	Free bool
	// Model indexes World.Models.
	Model int
	// PreviewURLs and PackURLs are the links embedded in the post.
	PreviewURLs []string
	PackURLs    []string
	// Flagged: the pack contains a hashlisted (child-abuse-flagged)
	// image.
	Flagged bool
}

// ThreadTruth is the generator's ground truth for a thread.
type ThreadTruth struct {
	Kind ThreadKind
	TOP  *TOPTruth
}

// ProofKind classifies what a proof-link actually points to.
type ProofKind int

// Proof link payloads.
const (
	// ProofEarnings: a parseable payment-dashboard screenshot.
	ProofEarnings ProofKind = iota
	// ProofChat: a chat screenshot (not a proof, SFV).
	ProofChat
	// ProofPreview: an indecent pack preview posted in an earnings
	// thread (filtered by the NSFV gate).
	ProofPreview
	// ProofDead: the link rotted.
	ProofDead
)

// ProofTruth records one proof-of-earnings link and what is behind it.
type ProofTruth struct {
	URL    string
	Thread forum.ThreadID
	Actor  forum.ActorID
	Date   time.Time
	Kind   ProofKind
	// Truth is the structured proof when Kind == ProofEarnings.
	Truth earnings.Proof
}

// ActorTruth carries the generator's per-actor ground truth.
type ActorTruth struct {
	ID         forum.ActorID
	Registered time.Time
	// EwStart/EwEnd bound the actor's eWhoring phase.
	EwStart, EwEnd time.Time
	// FirstActivity/LastActivity bound all forum activity.
	FirstActivity, LastActivity time.Time
}

// World is the generated study universe.
type World struct {
	Config Config

	Store     *forum.Store
	Web       *hosting.World
	Reverse   *reverse.Index
	Wayback   *wayback.Archive
	Directory *domaincls.Directory
	HashList  *photodna.HashList

	// Forum handles.
	Forums     []forum.ForumID
	HF         forum.ForumID
	HFEWhoring forum.BoardID
	HFCurrency forum.BoardID
	HFBragging forum.BoardID
	HFLounge   forum.BoardID

	// EWhoring lists the ground-truth eWhoring-related threads per
	// forum (the paper's selection: keyword headings + the Hackforums
	// eWhoring board).
	EWhoring map[forum.ForumID][]forum.ThreadID
	// Truth maps every generated thread to its ground truth.
	Truth map[forum.ThreadID]*ThreadTruth
	// Actors maps per-actor ground truth.
	Actors map[forum.ActorID]*ActorTruth

	// Models is the set of synthetic "models" whose images circulate.
	Models []*Model
	// Proofs records every proof link with its ground truth.
	Proofs []ProofTruth
	// DomainRegion assigns each web domain a hosting region.
	DomainRegion map[string]photodna.Region

	// Counters for calibration checks.
	NumPreviewLinks int
	NumPackLinks    int
	NumFlaggedTOPs  int

	// Generation-internal state.
	flaggedQueue  []int // model indices still to be placed in TOPs
	pendingProofs []int // w.Proofs indices awaiting their thread ID
	urlCounter    int
	// jobs is the parallel generation executor (exec.go); nil on the
	// inline path and always nil by the time Generate returns, so
	// DeepEqual across worker counts compares pure world state.
	jobs *jobRunner
	// rasters memoises model rasters for the duration of one
	// generation (exec.go); like jobs, it is nil once Generate returns.
	rasters *rasterMemo
	// packs memoises deflated pack members (exec.go) for the same span.
	packs *packMemo
}

// Generate builds the world, fanning image work out over
// cfg.Workers goroutines (GOMAXPROCS when unset). The result is
// bit-identical for every worker count: at Workers 1 every image job
// runs inline at its submission point, and that world is the
// reference the equivalence test holds other counts to.
func Generate(cfg Config) *World {
	//lint:ignore ctxhygiene Generate is the context-free convenience entry; traced callers use GenerateContext.
	return GenerateContext(context.Background(), cfg)
}

// GenerateContext is Generate under a caller context: any tracer in
// ctx records per-generator child spans (hosting/web/forums), and
// cancelling ctx abandons outstanding image jobs — the half-built
// world must then be discarded.
func GenerateContext(ctx context.Context, cfg Config) *World {
	return generateWith(ctx, cfg, newRasterMemo(), newPackMemo())
}

// generateWith is GenerateContext rendering model rasters and pack
// members through the given memos, which tests inspect once
// generation ends.
func generateWith(ctx context.Context, cfg Config, rasters *rasterMemo, packs *packMemo) *World {
	workers := cfg.EffectiveWorkers()
	w := newWorld(cfg)
	w.rasters = rasters
	w.packs = packs
	if workers > 1 {
		w.jobs = startJobRunner(ctx, workers)
	}
	w.generate(ctx)
	if w.jobs != nil {
		w.jobs.close()
		w.jobs = nil
	}
	w.rasters = nil
	w.packs = nil
	return w
}

// newWorld allocates the empty world and pre-sizes the forum store
// from the Table 1 calibration (capacity is invisible to DeepEqual,
// so every worker count shares the estimate).
func newWorld(cfg Config) *World {
	cfg = cfg.Canonical()
	w := &World{
		Config:       cfg,
		Store:        forum.NewStore(),
		Web:          hosting.NewWorld(),
		Reverse:      reverse.NewIndex(0),
		Wayback:      wayback.NewArchive(),
		Directory:    domaincls.NewDirectory(),
		HashList:     photodna.NewHashList(0),
		EWhoring:     make(map[forum.ForumID][]forum.ThreadID),
		Truth:        make(map[forum.ThreadID]*ThreadTruth),
		Actors:       make(map[forum.ActorID]*ActorTruth),
		DomainRegion: make(map[string]photodna.Region),
	}
	var threads, posts, actors int
	for _, spec := range paperForums {
		nThreads := cfg.scaled(spec.Threads, 4)
		threads += nThreads
		posts += cfg.scaled(spec.Posts, nThreads*2)
		actors += cfg.scaled(spec.Actors, 25)
	}
	// The eWhoring corpus is only part of the store. Measured over five
	// seeds, a world ends with 5.0–5.5× the nominal eWhoring posts at
	// scale 0.01, 4.3–5.0× at 0.05 and 4.0–4.5× at 0.2: replies run
	// ~1.5× the nominal count, and background activity adds ~2× that,
	// less at larger scales, where more actors hit its per-actor cap.
	// The log fit below sits 10% above the mean, so few seeds grow the
	// post slice. Exchange threads come on top, and each
	// background host thread holds ~50 replies.
	posts = int(float64(posts) * max(1, 1.1*(3.85-0.715*math.Log10(cfg.Scale))))
	threads += cfg.scaled(9066+6000, 13) + posts/70
	w.Store.Reserve(threads, posts, actors)
	return w
}

// generate runs the sequential random walk (see exec.go for how image
// work leaves it).
func (w *World) generate(ctx context.Context) {
	root := randx.New(w.Config.Seed)
	_, hostSpan := tracex.StartSpan(ctx, "synth hosting")
	w.genHostingSites()
	hostSpan.End()
	if !w.Config.SkipImages {
		_, webSpan := tracex.StartSpan(ctx, "synth web")
		w.genWeb(root.SplitLabeled("web"))
		webSpan.End()
	}
	_, forumSpan := tracex.StartSpan(ctx, "synth forums")
	w.genForums(root.SplitLabeled("forums"))
	forumSpan.End()
}

// ModelImage returns the i-th image of a model. Images are not
// stored in the world; they are deterministic in their parameters.
// During generation the raster comes from the shared memo and must
// not be modified; after generation each call renders a fresh copy.
func (w *World) ModelImage(m *Model, i int) *imagex.Image {
	return w.raster(w.modelRasterKey(m, i))
}

// modelRasterKey is the raster key of image i of model m.
func (w *World) modelRasterKey(m *Model, i int) rasterKey {
	mi := m.Images[i]
	return rasterKey{m.Seed, mi.Variant, mi.Pose, w.Config.ImageSize}
}

// SiteTypeOf maps a domain's ground-truth class to the IWF site-type
// vocabulary used in hotline reports.
func (w *World) SiteTypeOf(domain string) photodna.SiteType {
	switch w.Directory.Class(domain) {
	case domaincls.ClassPhotoSharing:
		return photodna.SiteImageSharing
	case domaincls.ClassForum:
		return photodna.SiteForum
	case domaincls.ClassBlog:
		return photodna.SiteBlog
	case domaincls.ClassSocialNetwork:
		return photodna.SiteSocialNetwork
	case domaincls.ClassEntertainment:
		return photodna.SiteVideoChannel
	default:
		return photodna.SiteRegular
	}
}

// RegionOf returns the hosting region of a domain (unknown domains are
// North America, the modal region).
func (w *World) RegionOf(domain string) photodna.Region {
	if r, ok := w.DomainRegion[domain]; ok {
		return r
	}
	return photodna.RegionNorthAmerica
}

// EWhoringAll returns every ground-truth eWhoring thread across
// forums, in ID order.
func (w *World) EWhoringAll() []forum.ThreadID {
	set := forum.NewThreadSet()
	for _, ids := range w.EWhoring {
		set.Add(ids...)
	}
	return set.Sorted()
}

// LabeledThread pairs a thread with its TOP ground truth, for
// building the annotated training corpus.
type LabeledThread struct {
	Thread forum.ThreadID
	IsTOP  bool
}

// AnnotationSample reproduces the paper's manual annotation: n
// threads sampled from the eWhoring corpus, enriched so that roughly
// 17.5% are TOPs (175 of the paper's 1 000). Deterministic in seed.
func (w *World) AnnotationSample(n int, seed uint64) []LabeledThread {
	rng := randx.New(seed)
	var tops, rest []forum.ThreadID
	for _, tid := range w.EWhoringAll() {
		if t := w.Truth[tid]; t != nil && t.Kind == KindTOP {
			tops = append(tops, tid)
		} else {
			rest = append(rest, tid)
		}
	}
	wantTops := int(0.175*float64(n) + 0.5)
	if wantTops > len(tops) {
		wantTops = len(tops)
	}
	wantRest := n - wantTops
	if wantRest > len(rest) {
		wantRest = len(rest)
	}
	out := make([]LabeledThread, 0, wantTops+wantRest)
	for _, i := range rng.Perm(len(tops))[:wantTops] {
		out = append(out, LabeledThread{Thread: tops[i], IsTOP: true})
	}
	for _, i := range rng.Perm(len(rest))[:wantRest] {
		out = append(out, LabeledThread{Thread: rest[i], IsTOP: false})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
