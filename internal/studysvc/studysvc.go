// Package studysvc serves the study as an HTTP API: POST a set of
// options and get back the paper's headline numbers, per-stage engine
// metrics and the full text report. The measurement pipeline becomes a
// service the way a production measurement platform would run it —
// requests for the same world are answered from cache, identical
// requests in flight share one run, and total concurrency is bounded.
//
//	POST /v1/study        run (or fetch) a study; body: {"seed":2019,"scale":0.05,...}
//	GET  /v1/study        list cached and in-flight runs
//	GET  /v1/study/{id}   fetch a run by id
//	GET  /v1/stats        service counters
//	GET  /v1/trace        recent trace ids (tracehttp.go)
//	GET  /v1/trace/{id}   one trace (JSON; ?format=perfetto for Chrome trace-event)
//
// Three mechanisms keep the service safe under heavy traffic:
//
//   - a bounded worker pool: at most Config.MaxConcurrentRuns studies
//     execute at once, the rest queue;
//   - in-flight coalescing: concurrent identical requests attach to
//     the one running study instead of starting their own;
//   - an LRU result cache keyed by canonicalized options: a study is
//     deterministic in its options (DESIGN.md §1), so a completed
//     Results never goes stale and identical requests are pure cache
//     hits.
package studysvc

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/artefact"
	"repro/internal/core"
	"repro/internal/faultx"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/tracex"
)

// Config tunes the service.
type Config struct {
	// MaxConcurrentRuns bounds how many studies execute at once
	// (default 2); further requests queue on the pool.
	MaxConcurrentRuns int
	// CacheSize is the LRU capacity in completed runs (default 16).
	CacheSize int
	// MaxScale rejects requests for worlds larger than this (default
	// 1.0 — paper scale).
	MaxScale float64
	// MaxWorkers rejects requests asking for more per-stage workers
	// (or crawler workers) than this (default 32): worker counts size
	// real goroutine pools, so an unbounded value is a one-request
	// denial of service.
	MaxWorkers int
	// BaseContext, when set, is the root context of every study the
	// service executes. Runs are deliberately detached from the
	// requesting HTTP context — coalesced requests share one run, and a
	// cached result outlives every requester — so the natural scope is
	// the server's lifetime: pass the context that is cancelled at
	// shutdown and in-flight studies stop with it. Nil defaults to an
	// un-cancellable background context.
	BaseContext context.Context
	// MaxQueueDepth bounds how many fresh-run HTTP requests may wait
	// for a pool slot at once (default 2×MaxConcurrentRuns; negative
	// disables queueing — a saturated pool sheds immediately). Beyond
	// the bound requests are shed with 429 instead of queueing, so
	// overload degrades into fast rejections rather than a growing
	// backlog of goroutines.
	MaxQueueDepth int
	// MaxQueueWait bounds how long an admitted waiter holds on for a
	// pool slot before being shed (default 2s) — the deadline that
	// keeps queued requests from outliving their caller's patience.
	MaxQueueWait time.Duration
	// RetryAfter is the backoff hint attached to 429 responses as the
	// Retry-After header (default 1s, rounded up to whole seconds on
	// the wire).
	RetryAfter time.Duration
	// Log receives the service log: one line per request span and one
	// per run span, written when the span ends (nil = silent). The
	// lines are built from the Tracer's span records, so with no
	// Tracer nothing is logged.
	Log *slog.Logger
	// Tracer records request/run/node/crawl spans into a bounded ring
	// served at GET /v1/trace/{id} (nil = tracing off, at zero cost on
	// the study hot path). Incoming traceparent headers join the
	// caller's trace; responses echo the adopted trace id back.
	Tracer *tracex.Tracer
}

// worldCacheSize bounds how many generated worlds stay resident for
// reuse across runs with the same canonical synth config. Worlds are
// the largest object the service holds, so the bound trades
// regeneration time against steady-state memory.
const worldCacheSize = 2

// memoSize bounds the shared artefact memo store in entries (≈ three
// worlds' 11-node sets). Every run — full or filtered — evaluates
// through this store, so two clients asking for different tables of
// the same world run the shared prefix of the artefact graph once,
// and runs differing only in worker knobs recompute nothing. Entries
// hold real artefact values — the crawl node's value is the whole
// downloaded corpus — so this bound, like worldCacheSize, trades
// recomputation against steady-state memory.
const memoSize = 33

func (c Config) withDefaults() Config {
	if c.MaxConcurrentRuns <= 0 {
		c.MaxConcurrentRuns = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1.0
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 32
	}
	if c.MaxQueueDepth == 0 {
		c.MaxQueueDepth = 2 * c.MaxConcurrentRuns
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BaseContext == nil {
		// The one place a detached context is the contract: a service
		// whose caller did not scope it runs studies for the process
		// lifetime.
		//lint:ignore ctxhygiene service-lifetime root for callers that set no Config.BaseContext; runs outlive their requesters by design
		c.BaseContext = context.Background()
	}
	return c
}

// Request is the POST /v1/study body. Zero fields take the study's
// defaults.
type Request struct {
	Seed             uint64  `json:"seed"`
	Scale            float64 `json:"scale"`
	AnnotationSize   int     `json:"annotation_size"`
	Workers          int     `json:"workers"`
	CrawlConcurrency int     `json:"crawl_concurrency"`
	// Artefacts, when non-empty, restricts the run to the named
	// artefacts (section names like "table5"/"figure2" or artefact
	// names like "provenance"/"actors"): only their subgraph
	// executes, and the response carries a partial report and no
	// summary. Empty means the full study.
	Artefacts []string `json:"artefacts,omitempty"`
	// Faults is a faultx fault-injection profile applied to the
	// study's crawl seam (see faultx.ParseProfile). "" or "off" means
	// none. An unparseable profile is a 400.
	Faults string `json:"faults,omitempty"`
}

// Canonical is a fully-defaulted request: the cache key domain. Two
// requests naming the same world in different ways (omitted fields vs
// explicit defaults) canonicalize identically and share one run.
type Canonical struct {
	Seed             uint64   `json:"seed"`
	Scale            float64  `json:"scale"`
	AnnotationSize   int      `json:"annotation_size"`
	Workers          int      `json:"workers"`
	CrawlConcurrency int      `json:"crawl_concurrency"`
	Artefacts        []string `json:"artefacts,omitempty"`
	Faults           string   `json:"faults,omitempty"`
}

// canonicalize applies the same defaulting core.NewStudy and
// synth.Generate apply — sourced from their exported defaults, so the
// key always matches what actually runs. Artefact names are
// normalized (lowercased, trimmed, sorted, deduplicated) and
// validated; an unknown name is the error a handler maps to 400.
func canonicalize(r Request) (Canonical, error) {
	def := core.DefaultOptions()
	c := Canonical{
		Seed: r.Seed, Scale: r.Scale, AnnotationSize: r.AnnotationSize,
		Workers: r.Workers, CrawlConcurrency: r.CrawlConcurrency,
	}
	if c.Seed == 0 {
		c.Seed = def.Synth.Seed
	}
	if c.Scale <= 0 {
		c.Scale = def.Synth.Scale
	}
	if c.AnnotationSize <= 0 {
		c.AnnotationSize = def.AnnotationSize
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.CrawlConcurrency <= 0 {
		c.CrawlConcurrency = def.CrawlConcurrency
	}
	// A profile canonicalizes to its plan's own spelling, so every way
	// of writing one plan shares one key; "" and "off" mean no
	// injection and share the fault-free key.
	if plan, err := faultx.ParseProfile(r.Faults); err != nil {
		return Canonical{}, err
	} else if plan != nil {
		c.Faults = plan.String()
	}
	if len(r.Artefacts) > 0 {
		seen := make(map[string]bool, len(r.Artefacts))
		for _, raw := range r.Artefacts {
			name := strings.ToLower(strings.TrimSpace(raw))
			if name == "" || seen[name] {
				continue
			}
			if _, _, err := report.Resolve(name); err != nil {
				return Canonical{}, err
			}
			seen[name] = true
			c.Artefacts = append(c.Artefacts, name)
		}
		sort.Strings(c.Artefacts)
	}
	return c, nil
}

// key renders the canonical options as the cache key. The faults
// segment appears only when set, so fault-free keys stay byte-
// identical to the pre-faultx era.
func (c Canonical) key() string {
	key := "seed=" + strconv.FormatUint(c.Seed, 10) +
		"|scale=" + strconv.FormatFloat(c.Scale, 'g', -1, 64) +
		"|annotation=" + strconv.Itoa(c.AnnotationSize) +
		"|workers=" + strconv.Itoa(c.Workers) +
		"|crawl=" + strconv.Itoa(c.CrawlConcurrency) +
		"|arts=" + strings.Join(c.Artefacts, ",")
	if c.Faults != "" {
		key += "|faults=" + c.Faults
	}
	return key
}

// coreOptions expands the canonical options for core.NewStudy.
func (c Canonical) coreOptions() core.Options {
	return core.Options{
		Synth:            synth.Config{Seed: c.Seed, Scale: c.Scale, Workers: c.Workers},
		AnnotationSize:   c.AnnotationSize,
		Workers:          c.Workers,
		CrawlConcurrency: c.CrawlConcurrency,
		Faults:           c.Faults,
	}
}

// Summary carries the study's headline numbers — the figures the
// paper's abstract quotes, not the full tables (those are in Report).
// It is an alias of sweep.Summary: the sweep aggregators and the
// service wire format share one definition, so a remote sweep folds
// exactly the numbers a local one does.
type Summary = sweep.Summary

// Run statuses.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Envelope is the wire form of one study run.
type Envelope struct {
	ID      string    `json:"id"`
	Status  string    `json:"status"`
	Cached  bool      `json:"cached"`
	Options Canonical `json:"options"`
	Error   string    `json:"error,omitempty"`
	// ElapsedMS is the study's execution time (not the request's: a
	// cached response keeps the original run's).
	ElapsedMS int64    `json:"elapsed_ms,omitempty"`
	Summary   *Summary `json:"summary,omitempty"`
	Report    string   `json:"report,omitempty"`
	// Degraded marks a successful run whose crawl lost tasks to dead
	// or exhausted hosts: the results are a partial corpus with a
	// per-host ledger in the report, not a failure. Graceful
	// degradation is the contract — a hostile substrate must never
	// turn a study into a 500.
	Degraded bool `json:"degraded,omitempty"`
}

// run is one study execution and its lifecycle.
type run struct {
	id   string
	key  string
	opts Canonical
	// origin is the request id that started the run ("" outside an
	// HTTP request) — the run span's origin_request attr, which joins
	// the run back to the HTTP request that caused it.
	origin string
	// originSpan is the starting request's span identity (zero outside
	// an HTTP request or with tracing off): the run's spans join the
	// originating trace even though the run itself is detached from the
	// request context. Coalesced later requests observe the first
	// requester's trace, matching how coalescing works everywhere else.
	originSpan tracex.SpanContext
	done       chan struct{} // closed when the run finishes

	// Written once before done closes, read-only after.
	status   string
	errMsg   string
	elapsed  time.Duration
	summary  *Summary
	report   string
	degraded bool
	// sections holds every rendered report section by name — the
	// GET /v1/study/{id}/artefact/{name} source. A full run renders
	// all of them; a filtered run only the requested ones.
	sections map[string]string
}

func (r *run) envelope(cached bool, full bool) Envelope {
	select {
	case <-r.done:
		// The closed channel orders the executor's writes before our
		// reads below.
	default:
		// Still running: only the immutable fields are safe to read.
		return Envelope{ID: r.id, Status: StatusRunning, Cached: cached, Options: r.opts}
	}
	env := Envelope{
		ID:      r.id,
		Status:  r.status,
		Cached:  cached,
		Options: r.opts,
		Error:   r.errMsg,
	}
	if r.status == StatusDone {
		env.ElapsedMS = r.elapsed.Milliseconds()
		env.Summary = r.summary
		env.Degraded = r.degraded
		if full {
			env.Report = r.report
		}
	}
	return env
}

// Stats are the service counters served at /v1/stats. The JSON shape
// is a dashboard contract, pinned by TestStatsJSONShape — extending it
// is fine, renaming or removing fields is a break.
type Stats struct {
	RunsStarted   int64 `json:"runs_started"`
	RunsCompleted int64 `json:"runs_completed"`
	RunsFailed    int64 `json:"runs_failed"`
	CacheHits     int64 `json:"cache_hits"`
	Coalesced     int64 `json:"coalesced"`
	Evictions     int64 `json:"evictions"`
	// Shed counts requests rejected by admission control (429): the
	// pool was saturated and the queue bound — depth or wait — was
	// exceeded. A nonzero rate under load is the service protecting
	// itself; a high rate is undersizing.
	Shed int64 `json:"shed"`
	// QueueDepth is the number of requests currently waiting for a
	// pool slot (bounded by Config.MaxQueueDepth).
	QueueDepth    int `json:"queue_depth"`
	InFlight      int `json:"in_flight"`
	CachedResults int `json:"cached_results"`
	// OpenRequests counts HTTP requests currently being served,
	// including ones merely waiting on a run.
	OpenRequests int `json:"open_requests"`
	// Memo mirrors the shared artefact store's counters: Computes is
	// the work the service actually did, Hits the work the artefact
	// graph saved it.
	Memo *artefact.StoreStats `json:"memo,omitempty"`
	// QueueWait is the admission-wait distribution over successfully
	// admitted fresh runs (cache hits and coalesced requests never
	// wait and are not counted).
	QueueWait pipeline.HistogramSnapshot `json:"queue_wait"`
	// Nodes is the shared memo store's per-node ledger over the
	// service's lifetime: memo hit/compute counts and the compute
	// latency histogram, sorted by node name.
	Nodes []NodeStats `json:"nodes"`
}

// Service runs studies behind a cache, an in-flight table and a
// bounded pool. Create with New; mount via Handler.
type Service struct {
	cfg Config
	sem chan struct{} // bounded worker pool

	mu       sync.Mutex
	stats    Stats
	inflight map[string]*run
	byID     map[string]*run
	order    *list.List               // LRU: front = most recent
	cache    map[string]*list.Element // key → element whose Value is *run
	failed   []string                 // failed run ids, oldest first (bounded)
	nextID   int

	// worlds shares generated synth worlds across runs whose canonical
	// synth configs match (LRU-bounded; safe — runs never mutate their
	// world). Sweep cells varying only annotation/workers hit it
	// hardest.
	worlds *sweep.WorldCache

	// memo shares artefact values across every run through the
	// service (LRU-bounded in entries): two clients asking for
	// different tables of the same world run the shared prefix of the
	// artefact graph once, coalesced by the store's in-flight
	// deduplication.
	memo *artefact.Store

	// waiting counts admission-queue waiters (guarded by mu; bounded
	// by cfg.MaxQueueDepth).
	waiting int
	// queueWait is the admission-wait histogram behind Stats.QueueWait.
	queueWait *pipeline.Histogram

	// reqMu guards the HTTP request tracking (separate from mu: the
	// middleware must not contend with run bookkeeping).
	reqMu    sync.Mutex
	nextReq  int
	openReqs map[string]openRequest

	// testRunHook, when set by tests, runs inside execute while the
	// run holds its pool slot — the seam saturation tests use to hold
	// the pool full deterministically.
	testRunHook func()
}

// New builds a service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.MaxConcurrentRuns),
		inflight:  make(map[string]*run),
		byID:      make(map[string]*run),
		order:     list.New(),
		cache:     make(map[string]*list.Element),
		worlds:    sweep.NewWorldCache(worldCacheSize),
		memo:      artefact.NewStore(memoSize),
		queueWait: pipeline.NewHistogram(),
		openReqs:  make(map[string]openRequest),
	}
}

// getOrStart returns the run for the canonical options: a cached
// result, the in-flight run to coalesce onto, or a freshly started
// one. cached reports a cache hit. Starting a fresh run requires
// admission — a worker-pool slot — so a saturated pool surfaces here
// as ErrSaturated instead of unbounded queueing; cache hits and
// coalesced requests need no slot and are never shed.
func (s *Service) getOrStart(ctx context.Context, c Canonical) (r *run, cached bool, err error) {
	key := c.key()
	if r, cached, ok := s.lookup(key); ok {
		return r, cached, nil
	}
	// Miss: reserve a pool slot BEFORE registering the run, so the
	// number of queued-but-unstarted runs is bounded by the admission
	// queue, not by the request rate.
	if err := s.admit(ctx); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: an identical request may have completed
	// or started while we waited for the slot.
	if el, ok := s.cache[key]; ok {
		<-s.sem // release the unused slot; never blocks, we hold it
		s.order.MoveToFront(el)
		s.stats.CacheHits++
		return el.Value.(*run), true, nil
	}
	if r, ok := s.inflight[key]; ok {
		<-s.sem
		s.stats.Coalesced++
		return r, false, nil
	}
	s.nextID++
	r = &run{
		id:         "s-" + strconv.Itoa(s.nextID),
		key:        key,
		opts:       c,
		origin:     requestIDFrom(ctx),
		originSpan: tracex.SpanContextFromContext(ctx),
		done:       make(chan struct{}),
		status:     StatusRunning,
	}
	s.inflight[key] = r
	s.byID[r.id] = r
	s.stats.RunsStarted++
	go s.execute(r) // execute owns the admitted slot and releases it
	return r, false, nil
}

// lookup checks the result cache and the in-flight table; ok reports
// that the request needs no new run (and so no admission).
func (s *Service) lookup(key string) (r *run, cached, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.cache[key]; ok {
		s.order.MoveToFront(el)
		s.stats.CacheHits++
		return el.Value.(*run), true, true
	}
	if r, ok := s.inflight[key]; ok {
		s.stats.Coalesced++
		return r, false, true
	}
	return nil, false, false
}

// execute runs one study and publishes the outcome. The caller
// (getOrStart) already admitted it into the worker pool; execute
// releases the slot when done.
//
// Deferred calls run last first: the run span ends and is logged,
// the slot is released, and only then does done close. By that time
// the run is filed — out of the in-flight table, into the cache or the
// failed list, counted — so a requester woken by done that repeats its
// request gets a cache hit, never a coalesce onto a finished run.
func (s *Service) execute(r *run) {
	defer close(r.done)
	defer func() { <-s.sem }()
	if s.testRunHook != nil {
		s.testRunHook()
	}

	// Runs are detached from their requesting HTTP context (coalesced
	// requests share them), so the run context is BaseContext plus the
	// tracer, re-parented onto the originating request's span so the
	// run's node spans land in the caller's trace.
	ctx := tracex.NewContext(s.cfg.BaseContext, s.cfg.Tracer)
	ctx = tracex.WithRemote(ctx, r.originSpan)
	ctx, runSpan := tracex.StartSpan(ctx, "run")
	runSpan.SetAttr("run", r.id)
	runSpan.SetAttr("options", r.key)
	if r.origin != "" {
		runSpan.SetAttr("origin_request", r.origin)
	}
	defer func() { s.logSpan(runSpan.End()) }()

	start := time.Now()
	// Worlds are shared across runs with the same canonical synth
	// config: study requests (sweep cells among them) that only vary
	// annotation/workers/crawl reuse one generated world.
	// World acquisition is the study's cold-start dominator, so it gets
	// its own span; a cache hit shows up as a near-zero "synth" span, a
	// miss as the generation cost the critical-path report attributes.
	opts := r.opts.coreOptions()
	sctx, synthSpan := tracex.StartSpan(ctx, "synth")
	synthSpan.SetAttr("workers", strconv.Itoa(opts.Synth.EffectiveWorkers()))
	study := core.NewStudyWithWorldContext(sctx, opts, s.worlds.GetContext(sctx, opts.Synth))
	synthSpan.End()
	study.UseMemo(s.memo)

	// Full requests evaluate the whole artefact graph; filtered
	// requests only the selection's subgraph. Either way the shared
	// memo store carries node values across runs.
	var res *core.Results
	var err error
	sections, arts, rerr := report.Resolve(r.opts.Artefacts...)
	if rerr != nil {
		// Unreachable for canonicalized options, but never run an
		// unvalidated selection.
		err = rerr
	} else if len(r.opts.Artefacts) == 0 {
		res, err = study.Run(ctx)
	} else {
		res, err = study.Compute(ctx, arts...)
		study.Close()
	}
	elapsed := time.Since(start)

	if err == nil {
		r.sections = make(map[string]string, len(sections))
		parts := make([]string, 0, len(sections))
		for _, sec := range sections {
			text := sec.Render(res)
			r.sections[sec.Name] = text
			parts = append(parts, text)
		}
		// For a full run this join IS report.Full (same sections,
		// same order, same separator).
		r.report = strings.Join(parts, "\n")
		if len(r.opts.Artefacts) == 0 {
			// Only a full run has every field a Summary reads.
			sum := sweep.Summarize(res)
			r.summary = &sum
		}
		if res != nil {
			r.degraded = res.Degraded()
		}
		r.elapsed = elapsed
		r.status = StatusDone
	} else {
		r.errMsg = err.Error()
		r.status = StatusFailed
		runSpan.SetAttr("error", r.errMsg)
	}
	runSpan.SetAttr("status", r.status)

	s.mu.Lock()
	delete(s.inflight, r.key)
	if err == nil {
		s.stats.RunsCompleted++
		s.cache[r.key] = s.order.PushFront(r)
		for s.order.Len() > s.cfg.CacheSize {
			el := s.order.Back()
			victim := el.Value.(*run)
			s.order.Remove(el)
			delete(s.cache, victim.key)
			delete(s.byID, victim.id)
			s.stats.Evictions++
		}
	} else {
		s.stats.RunsFailed++
		// Failed runs stay addressable for a while so a waiting GET can
		// read the error, but never enter the cache: identical options
		// retry. Bound the bookkeeping.
		s.failed = append(s.failed, r.id)
		for len(s.failed) > 32 {
			delete(s.byID, s.failed[0])
			s.failed = s.failed[1:]
		}
	}
	s.mu.Unlock()
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.InFlight = len(s.inflight)
	st.CachedResults = len(s.cache)
	st.QueueDepth = s.waiting
	s.mu.Unlock()
	ms := s.memo.Stats()
	st.Memo = &ms
	st.Nodes = s.nodeStats()
	st.QueueWait = s.queueWait.Snapshot()
	s.reqMu.Lock()
	st.OpenRequests = len(s.openReqs)
	s.reqMu.Unlock()
	return st
}

// Handler mounts the API behind the request middleware (ids, request
// logging, in-flight tracking — obs.go).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/study", s.handleRun)
	mux.HandleFunc("GET /v1/study", s.handleList)
	mux.HandleFunc("GET /v1/study/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/study/{id}/artefact/{name}", s.handleArtefact)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/trace", s.handleTraceList)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTraceGet)
	return s.instrument(mux)
}

// validate enforces the service's resource limits on one canonical
// request; it returns a non-empty reason when the request is rejected.
func (s *Service) validate(c Canonical) string {
	if c.Scale > s.cfg.MaxScale {
		return fmt.Sprintf("scale %g exceeds the service limit %g", c.Scale, s.cfg.MaxScale)
	}
	if c.Workers > s.cfg.MaxWorkers {
		return fmt.Sprintf("workers %d exceeds the service limit %d", c.Workers, s.cfg.MaxWorkers)
	}
	if c.CrawlConcurrency > s.cfg.MaxWorkers {
		return fmt.Sprintf("crawl concurrency %d exceeds the service limit %d", c.CrawlConcurrency, s.cfg.MaxWorkers)
	}
	return ""
}

// decodeRequest reads a POST /v1/study body: at most 1 MiB, and no
// field Request does not name.
func decodeRequest(w http.ResponseWriter, body io.ReadCloser) (Request, error) {
	var in Request
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&in)
	return in, err
}

func (s *Service) handleRun(w http.ResponseWriter, req *http.Request) {
	in, err := decodeRequest(w, req.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	c, err := canonicalize(in)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if reason := s.validate(c); reason != "" {
		httpError(w, http.StatusUnprocessableEntity, reason)
		return
	}

	r, cached, err := s.getOrStart(req.Context(), c)
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			secs := s.retryAfterSeconds()
			// The header is the machine-readable backoff hint; the JSON
			// body repeats it for humans reading error strings.
			w.Header().Set("Retry-After", faultx.FormatRetryAfter(time.Duration(secs)*time.Second))
			httpError(w, http.StatusTooManyRequests,
				fmt.Sprintf("%v; retry after %ds", err, secs))
			return
		}
		// Admission ended with the request's own context: the client is
		// gone, nothing useful to write.
		return
	}
	if req.URL.Query().Get("wait") == "false" {
		writeJSONStatus(w, http.StatusAccepted, r.envelope(cached, false))
		return
	}
	select {
	case <-r.done:
	case <-req.Context().Done():
		// Client gone; the run continues for future requests.
		return
	}
	writeJSON(w, r.envelope(cached, wantReport(req)))
}

func (s *Service) handleGet(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	s.mu.Lock()
	r, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such study run (completed runs are evicted LRU)")
		return
	}
	if req.URL.Query().Get("wait") == "true" {
		select {
		case <-r.done:
		case <-req.Context().Done():
			return
		}
	}
	writeJSON(w, r.envelope(false, wantReport(req)))
}

// ArtefactEnvelope is the GET /v1/study/{id}/artefact/{name}
// response: one named artefact's rendered section(s) from a completed
// run.
type ArtefactEnvelope struct {
	ID       string `json:"id"`
	Artefact string `json:"artefact"`
	Status   string `json:"status"`
	Report   string `json:"report,omitempty"`
}

// handleArtefact serves a single artefact of a run by name — the
// selective read path: a client that already ran (or is sharing) a
// study fetches just Table 5 without the rest of the report.
//
// The name is validated before the id is looked up, so an unknown
// artefact is always 400, and a missing or evicted id 404.
func (s *Service) handleArtefact(w http.ResponseWriter, req *http.Request) {
	id, name := req.PathValue("id"), req.PathValue("name")
	sections, _, err := report.Resolve(name)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	r, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such study run (completed runs are evicted LRU)")
		return
	}
	select {
	case <-r.done:
	case <-req.Context().Done():
		return
	}
	if r.status != StatusDone {
		httpError(w, http.StatusConflict, fmt.Sprintf("run %s %s: %s", r.id, r.status, r.errMsg))
		return
	}
	var parts []string
	for _, sec := range sections {
		text, ok := r.sections[sec.Name]
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf(
				"run %s did not compute %q (its artefact filter is %v)", r.id, sec.Name, r.opts.Artefacts))
			return
		}
		parts = append(parts, text)
	}
	writeJSON(w, ArtefactEnvelope{
		ID: r.id, Artefact: name, Status: r.status,
		Report: strings.Join(parts, "\n"),
	})
}

// RunInfo is one row of the GET /v1/study listing: enough for a sweep
// client or an operator to inspect the LRU and the in-flight table
// without guessing ids.
type RunInfo struct {
	ID      string    `json:"id"`
	Status  string    `json:"status"`
	Options Canonical `json:"options"`
	// Cached reports that the run's result sits in the LRU cache.
	Cached    bool  `json:"cached"`
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// RunList is the GET /v1/study response.
type RunList struct {
	Runs []RunInfo `json:"runs"`
}

// List snapshots every addressable run: in-flight first (oldest
// started first), then cached results from most to least recently
// used, then retained failures (oldest first).
func (s *Service) List() RunList {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := RunList{Runs: []RunInfo{}}
	inflight := make([]*run, 0, len(s.inflight))
	for _, r := range s.inflight {
		inflight = append(inflight, r)
	}
	// Ids are "s-N" with N monotonically increasing: numeric order is
	// start order.
	sort.Slice(inflight, func(i, j int) bool {
		return runSeq(inflight[i].id) < runSeq(inflight[j].id)
	})
	for _, r := range inflight {
		out.Runs = append(out.Runs, RunInfo{ID: r.id, Status: StatusRunning, Options: r.opts})
	}
	for el := s.order.Front(); el != nil; el = el.Next() {
		r := el.Value.(*run)
		out.Runs = append(out.Runs, RunInfo{
			ID: r.id, Status: r.status, Options: r.opts,
			Cached: true, ElapsedMS: r.elapsed.Milliseconds(),
		})
	}
	for _, id := range s.failed {
		if r, ok := s.byID[id]; ok {
			out.Runs = append(out.Runs, RunInfo{ID: r.id, Status: r.status, Options: r.opts})
		}
	}
	return out
}

// runSeq extracts the numeric suffix of a run id ("s-12" → 12).
func runSeq(id string) int {
	if i := strings.LastIndexByte(id, '-'); i >= 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil {
			return n
		}
	}
	return 0
}

func (s *Service) handleList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, s.List())
}

func (s *Service) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, s.Stats())
}

// wantReport reports whether the response should carry the full text
// report (default yes; report=false trims it).
func wantReport(req *http.Request) bool {
	return req.URL.Query().Get("report") != "false"
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeJSONStatus writes a JSON body under a non-200 status. The
// Content-Type must be set before WriteHeader — mutations after it are
// silently dropped.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
