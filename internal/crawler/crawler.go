// Package crawler implements the study's custom crawler (§4.2): it
// takes the preview and pack links extracted from Threads Offering
// Packs, downloads them over HTTP with bounded concurrency and
// retries, decompresses pack archives, and annotates every downloaded
// image with the post metadata it came from
// ("for each link, we also annotate associated metadata (e.g., the
// post identifier and author)").
package crawler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultx"
	"repro/internal/forum"
	"repro/internal/hosting"
	"repro/internal/imagex"
	"repro/internal/pipeline"
	"repro/internal/tracex"
	"repro/internal/urlx"
)

// Outcome classifies what happened when a link was fetched.
type Outcome int

// Fetch outcomes.
const (
	// OutcomeOK: content downloaded and decoded.
	OutcomeOK Outcome = iota
	// OutcomeNotFound: the object is gone (404/410) — the link rot the
	// paper hits constantly ("many files and images had been deleted").
	OutcomeNotFound
	// OutcomeLoginRequired: a registration wall; the crawler records
	// and respects it ("we did not download packs from some sites
	// requiring registration, e.g., Dropbox or Google Drive").
	OutcomeLoginRequired
	// OutcomeSiteDown: the whole service is defunct (oron).
	OutcomeSiteDown
	// OutcomeError: transport failure or undecodable payload after
	// retries.
	OutcomeError
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeNotFound:
		return "not found"
	case OutcomeLoginRequired:
		return "login required"
	case OutcomeSiteDown:
		return "site down"
	case OutcomeError:
		return "error"
	default:
		return "unknown"
	}
}

// Task is one link to fetch, with its forum provenance.
type Task struct {
	Link   urlx.Link
	Thread forum.ThreadID
	Post   forum.PostID
	Author forum.ActorID
}

// Result is the outcome of one task.
type Result struct {
	Task    Task
	Outcome Outcome
	// Images holds the decoded payload: one image for image-sharing
	// links, every archive member for pack links. A member that recurs
	// across the crawl's packs is one shared *imagex.Image: read it,
	// never write to it.
	Images []*imagex.Image
	// Digests holds each image's hash and skin statistics, computed
	// once per distinct image in the crawl worker; Digests[i] belongs
	// to Images[i].
	Digests []imagex.Digest
	// IsPack reports whether the payload was a zip archive.
	IsPack bool
	Err    error
}

// Config controls crawl behaviour.
type Config struct {
	// Concurrency is the number of parallel workers (default 8).
	Concurrency int
	// MaxRetries is the number of re-attempts after transport errors
	// (default 2).
	MaxRetries int
	// BackoffBase is the unit of the deterministic retry backoff:
	// attempt n sleeps n*BackoffBase (default 10ms). No jitter — retry
	// schedules must be reproducible. A server Retry-After hint
	// overrides the linear schedule (see Backoff).
	BackoffBase time.Duration
	// MaxBackoff caps any single retry sleep, hinted or not (default
	// 2s) — an adversarial Retry-After must not stall a worker.
	MaxBackoff time.Duration
	// BreakerThreshold is the number of consecutive retry-exhausted
	// fetches that opens a host's circuit breaker (default 4; negative
	// disables the breaker). While open, fetches to the host fail fast
	// with ErrHostOpen instead of burning the full retry schedule.
	BreakerThreshold int
	// BreakerProbeEvery is the half-open cadence: every Nth fetch that
	// arrives at an open host is let through as a probe (default 8); a
	// probe that reaches a definitive outcome closes the breaker. The
	// cadence is count-based, not clock-based, so breaker behaviour is
	// reproducible.
	BreakerProbeEvery int
	// RetryBudget caps the total retries spent per host across the
	// whole crawl (default 0 = unlimited). A budget makes wall-clock
	// under a hostile host strictly bounded, at the cost of letting
	// the interleaving decide which fetch is denied its retry — leave
	// it unlimited where bit-reproducibility of individual outcomes
	// matters.
	RetryBudget int
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 4
	}
	if c.BreakerProbeEvery <= 0 {
		c.BreakerProbeEvery = 8
	}
	return c
}

// Backoff is the deterministic retry schedule: with a server hint
// (Retry-After on 429/503) attempt n sleeps min(hint<<n, maxBackoff)
// — the same capped doubling studysvc.Client applies to the service's
// shed responses — and without one it sleeps the legacy linear
// (n+1)*base, also capped. attempt is 0-based.
func Backoff(attempt int, base, maxBackoff, retryAfter time.Duration) time.Duration {
	var d time.Duration
	if retryAfter > 0 {
		if attempt > 30 {
			attempt = 30
		}
		d = retryAfter << attempt
	} else {
		d = time.Duration(attempt+1) * base
	}
	if maxBackoff > 0 && d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// StatusError is a retryable non-2xx response from the hosting world,
// carrying the server's Retry-After hint when it sent one.
type StatusError struct {
	StatusCode int
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("crawler: unexpected status %d", e.StatusCode)
}

// RetryAfterHint extracts a server backoff hint from a *StatusError
// anywhere in err's chain, or 0.
func RetryAfterHint(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// ErrHostOpen marks a fetch short-circuited by an open per-host
// circuit breaker.
var ErrHostOpen = errors.New("crawler: host circuit open")

// Crawler downloads links through a resolver (virtual domain → live
// URL) with an injectable HTTP client.
type Crawler struct {
	cfg     Config
	client  *http.Client
	resolve func(string) (string, error)
	// packs inflates and digests each distinct pack member once per
	// crawler, however many packs repeat it.
	packs imagex.PackDecoder

	mu       sync.Mutex
	breakers map[string]*breakerState
	retries  map[string]int
}

// breakerState is one host's circuit breaker. All transitions are
// count-based (no clocks): `fails` consecutive retry-exhausted fetches
// open it; while open, every BreakerProbeEvery-th arrival is admitted
// as a half-open probe; any definitive outcome closes it.
type breakerState struct {
	fails   int
	open    bool
	skipped int
}

// New builds a crawler. client may be nil (http.DefaultClient);
// resolve may be nil (identity).
func New(cfg Config, client *http.Client, resolve func(string) (string, error)) *Crawler {
	if client == nil {
		client = http.DefaultClient
	}
	if resolve == nil {
		resolve = func(s string) (string, error) { return s, nil }
	}
	return &Crawler{
		cfg:      cfg.withDefaults(),
		client:   client,
		resolve:  resolve,
		breakers: make(map[string]*breakerState),
		retries:  make(map[string]int),
	}
}

// admitHost asks the host's circuit breaker whether a fetch may
// proceed. Open breakers admit every BreakerProbeEvery-th arrival as a
// half-open probe.
func (c *Crawler) admitHost(host string) bool {
	if c.cfg.BreakerThreshold < 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[host]
	if b == nil || !b.open {
		return true
	}
	b.skipped++
	return b.skipped%c.cfg.BreakerProbeEvery == 0
}

// recordHost feeds a fetch's fate back into the host's breaker.
func (c *Crawler) recordHost(host string, failed bool) {
	if c.cfg.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[host]
	if b == nil {
		b = &breakerState{}
		c.breakers[host] = b
	}
	if !failed {
		b.fails, b.open, b.skipped = 0, false, 0
		return
	}
	b.fails++
	if b.fails >= c.cfg.BreakerThreshold {
		b.open = true
	}
}

// takeRetry spends one unit of the host's retry budget; false means
// the budget is exhausted and the fetch must settle for its last
// error.
func (c *Crawler) takeRetry(host string) bool {
	if c.cfg.RetryBudget <= 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retries[host] >= c.cfg.RetryBudget {
		return false
	}
	c.retries[host]++
	return true
}

// Crawl fetches every task with bounded concurrency and returns the
// results in task order: CrawlStream, collected. If ctx is cancelled,
// every task the stream left undelivered comes back as OutcomeError
// carrying ctx.Err().
func (c *Crawler) Crawl(ctx context.Context, tasks []Task) []Result {
	results := pipeline.Collect(c.CrawlStream(ctx, tasks))
	for _, t := range tasks[len(results):] {
		results = append(results, Result{Task: t, Outcome: OutcomeError, Err: ctx.Err()})
	}
	return results
}

// CrawlStream fetches every task with bounded concurrency, delivering
// each result on the returned channel in task order as it becomes
// available, so downstream stages can start before the crawl
// finishes. If ctx is cancelled the channel closes
// early with the remaining tasks undelivered.
func (c *Crawler) CrawlStream(ctx context.Context, tasks []Task) <-chan Result {
	return pipeline.Map(ctx, "crawl §4.2", c.cfg.Concurrency, pipeline.Emit(ctx, tasks),
		func(ctx context.Context, t Task) Result { return c.fetchOne(ctx, t) })
}

// fetchOne downloads and decodes one task with retries, gated by the
// host's circuit breaker and retry budget.
func (c *Crawler) fetchOne(ctx context.Context, t Task) (res Result) {
	ctx, sp := tracex.StartSpan(ctx, "crawl fetch")
	attempts := 0
	defer func() {
		sp.SetAttr("outcome", res.Outcome.String())
		sp.SetAttr("attempts", strconv.Itoa(attempts))
		sp.End()
	}()
	res = Result{Task: t}
	if !c.admitHost(t.Link.Domain) {
		res.Outcome = OutcomeError
		res.Err = fmt.Errorf("%w: %s", ErrHostOpen, t.Link.Domain)
		return res
	}
	target, err := c.resolve(t.Link.URL)
	if err != nil {
		res.Outcome = OutcomeError
		res.Err = err
		return res
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		attempts++
		got, err := c.attempt(ctx, target)
		if err == nil {
			c.recordHost(t.Link.Domain, false)
			got.Task = t
			return got
		}
		lastErr = err
		if attempt == c.cfg.MaxRetries || !c.takeRetry(t.Link.Domain) {
			break
		}
		// Back off before retrying: the server's Retry-After hint when
		// it sent one, the linear schedule otherwise — both capped.
		select {
		case <-ctx.Done():
			res.Outcome = OutcomeError
			res.Err = ctx.Err()
			return res
		case <-time.After(Backoff(attempt, c.cfg.BackoffBase, c.cfg.MaxBackoff, RetryAfterHint(err))):
		}
	}
	c.recordHost(t.Link.Domain, true)
	res.Outcome = OutcomeError
	res.Err = lastErr
	return res
}

// bodyPool recycles response-body buffers across fetches; outsized
// bodies are dropped on return instead of pinning pool memory.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffer capacity the pool retains (a scale-1
// pack zip is a few hundred KiB; anything larger is an outlier).
const maxPooledBody = 4 << 20

func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// maxBodyBytes caps a response body.
const maxBodyBytes = 64 << 20

// maxDrain bounds how much of an unread body drainClose reads. An
// error page is a few hundred bytes; reading it to EOF hands the
// connection back to the keep-alive pool, where closing it unread
// would make the transport drop the connection and redial.
const maxDrain = 64 << 10

// drainClose reads at most maxDrain bytes of body, then closes it. A
// failed read only costs the connection, as closing unread would.
func drainClose(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, maxDrain)
	body.Close()
}

// attempt performs a single HTTP round trip and decode, returning the
// result without its task. A non-nil error means "retryable transport
// failure"; definitive outcomes return err == nil.
func (c *Crawler) attempt(ctx context.Context, target string) (Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return Result{Outcome: OutcomeError}, err
	}
	req.Header.Set("User-Agent", "ewhoring-study-crawler/1.0 (research)")
	resp, err := c.client.Do(req)
	if err != nil {
		return Result{Outcome: OutcomeError}, err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusNotFound, http.StatusGone:
		return Result{Outcome: OutcomeNotFound}, nil
	case http.StatusUnauthorized, http.StatusForbidden:
		return Result{Outcome: OutcomeLoginRequired}, nil
	case http.StatusTooManyRequests:
		// Rate-limited: retryable, honoring the host's backoff request.
		return Result{Outcome: OutcomeError}, &StatusError{
			StatusCode: resp.StatusCode,
			RetryAfter: faultx.ParseRetryAfter(resp.Header.Get("Retry-After")),
		}
	case http.StatusServiceUnavailable, http.StatusBadGateway:
		if ra := faultx.ParseRetryAfter(resp.Header.Get("Retry-After")); ra > 0 {
			// A 503 with Retry-After is a host asking for patience, not
			// the substrate's permanent "service defunct" page — retry.
			return Result{Outcome: OutcomeError}, &StatusError{StatusCode: resp.StatusCode, RetryAfter: ra}
		}
		return Result{Outcome: OutcomeSiteDown}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return Result{Outcome: OutcomeError}, &StatusError{StatusCode: resp.StatusCode}
	}
	// Bodies are read into pooled buffers: a crawl reads one body per
	// page, Decode copies an image's pixels out, and the pack decoder
	// keeps its own copy of each member's compressed bytes, so nothing
	// below retains the buffer once attempt returns.
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBodyBuf(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxBodyBytes)); err != nil {
		return Result{Outcome: OutcomeError}, err
	}
	body := buf.Bytes()
	ct := resp.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, hosting.ContentTypeSIMG):
		im, err := imagex.Decode(body)
		if err != nil {
			return Result{Outcome: OutcomeError}, fmt.Errorf("crawler: bad image payload: %w", err)
		}
		return Result{
			Outcome: OutcomeOK,
			Images:  []*imagex.Image{im},
			Digests: []imagex.Digest{imagex.DigestOf(im)},
		}, nil
	case strings.HasPrefix(ct, hosting.ContentTypeZip):
		images, digests, err := c.packs.Decode(body)
		if err != nil {
			return Result{Outcome: OutcomeOK, IsPack: true}, fmt.Errorf("crawler: bad pack payload: %w", err)
		}
		return Result{Outcome: OutcomeOK, Images: images, Digests: digests, IsPack: true}, nil
	default:
		// HTML or other: treat as an error page without content.
		return Result{Outcome: OutcomeNotFound}, nil
	}
}

// Stats aggregates crawl results.
type Stats struct {
	Tasks          int
	ByOutcome      map[Outcome]int
	ImagesFetched  int
	PacksFetched   int
	PackImages     int
	PreviewImages  int
	UniqueImages   int
	DuplicateCount int
	// Coverage is the per-host degradation ledger (see CoverageOf).
	Coverage Coverage
}

// HostCoverage is one host's row in the degradation ledger.
type HostCoverage struct {
	Host          string `json:"host"`
	Tasks         int    `json:"tasks"`
	OK            int    `json:"ok"`
	NotFound      int    `json:"not_found,omitempty"`
	LoginRequired int    `json:"login_required,omitempty"`
	SiteDown      int    `json:"site_down,omitempty"`
	Errors        int    `json:"errors,omitempty"`
}

// Coverage is the crawl's per-host coverage/error ledger: the record
// of what a partial corpus is missing and which hosts it lost. It is
// built from outcome counts only — never from retry timing or worker
// interleaving — so a given fault schedule yields the same ledger on
// every run.
type Coverage struct {
	// Hosts is the ledger, sorted by host name.
	Hosts []HostCoverage `json:"hosts,omitempty"`
	// Errors is the total number of tasks lost to exhausted retries or
	// open breakers.
	Errors int `json:"errors"`
	// DeadHosts names the hosts where every task errored — the hosts a
	// degraded study lost entirely. Sorted.
	DeadHosts []string `json:"dead_hosts,omitempty"`
	// Degraded reports whether the corpus is partial: any task lost.
	Degraded bool `json:"degraded"`
}

// CoverageOf builds the degradation ledger from crawl results.
func CoverageOf(results []Result) Coverage {
	byHost := make(map[string]*HostCoverage)
	var cov Coverage
	for _, r := range results {
		host := r.Task.Link.Domain
		hc := byHost[host]
		if hc == nil {
			hc = &HostCoverage{Host: host}
			byHost[host] = hc
		}
		hc.Tasks++
		switch r.Outcome {
		case OutcomeOK:
			hc.OK++
		case OutcomeNotFound:
			hc.NotFound++
		case OutcomeLoginRequired:
			hc.LoginRequired++
		case OutcomeSiteDown:
			hc.SiteDown++
		default:
			hc.Errors++
			cov.Errors++
		}
	}
	for _, hc := range byHost {
		cov.Hosts = append(cov.Hosts, *hc)
		if hc.Errors == hc.Tasks && hc.Tasks > 0 {
			cov.DeadHosts = append(cov.DeadHosts, hc.Host)
		}
	}
	sort.Slice(cov.Hosts, func(i, j int) bool { return cov.Hosts[i].Host < cov.Hosts[j].Host })
	sort.Strings(cov.DeadHosts)
	cov.Degraded = cov.Errors > 0
	return cov
}

// Summarize computes crawl statistics, including deduplication by
// exact perceptual hash pair (the paper: "After removing duplicates
// ... there were 53 948 unique files"), counted from the hashes each
// result carries. ImagesFetched counts occurrences and UniqueImages
// distinct hashes.
func Summarize(results []Result) Stats {
	s := Stats{Tasks: len(results), ByOutcome: make(map[Outcome]int)}
	seen := make(map[imagex.Hash128]struct{})
	for _, r := range results {
		s.ByOutcome[r.Outcome]++
		if r.Outcome != OutcomeOK {
			continue
		}
		if r.IsPack {
			s.PacksFetched++
			s.PackImages += len(r.Images)
		} else {
			s.PreviewImages += len(r.Images)
		}
		s.ImagesFetched += len(r.Images)
		for _, d := range r.Digests {
			if _, dup := seen[d.Hash]; dup {
				s.DuplicateCount++
			} else {
				seen[d.Hash] = struct{}{}
			}
		}
	}
	s.UniqueImages = len(seen)
	s.Coverage = CoverageOf(results)
	return s
}

// OutcomeCounts renders ByOutcome in a stable order for reports.
func (s Stats) OutcomeCounts() []string {
	keys := make([]int, 0, len(s.ByOutcome))
	for k := range s.ByOutcome {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%d", Outcome(k), s.ByOutcome[Outcome(k)]))
	}
	return out
}
