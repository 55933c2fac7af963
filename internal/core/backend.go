package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/faultx"
	"repro/internal/imagex"
	"repro/internal/reverse"
	"repro/internal/urlx"
)

// Backend abstracts how the study reaches the web substrate: the
// hosting sites it crawls (§4.2), the reverse image search (§4.5), the
// Wayback archive (§4.5) and the landing pages the snowball sampling
// visits (§4.2). The default backend talks to the in-process world
// through an embedded server; an HTTP backend drives the same study
// against live services (cmd/ewserve), and the equivalence test pins
// both to bit-identical Results.
//
// Backends must be deterministic for a fixed world: the same call
// sequence yields the same values, in the same order, on every run.
type Backend interface {
	// CrawlStream fetches every task, delivering results on the
	// returned channel in task order. The channel closes early, with
	// tasks undelivered, if ctx is cancelled.
	CrawlStream(ctx context.Context, tasks []crawler.Task) <-chan crawler.Result
	// SearchHash reverse-searches a precomputed composite hash.
	SearchHash(ctx context.Context, h imagex.Hash128) []reverse.Match
	// WaybackSeenBefore reports whether the URL was archived strictly
	// before the cutoff.
	WaybackSeenBefore(ctx context.Context, rawURL string, cutoff time.Time) bool
	// VisitKind inspects a domain's landing page for snowball sampling.
	VisitKind(ctx context.Context, domain string) (urlx.Kind, bool)
	// Close releases backend resources.
	Close()
}

// worldBackend serves the study from the in-process world: crawls go
// against the lazily-started embedded hosting server, searches and
// archive lookups hit the world's indexes directly.
type worldBackend struct {
	study *Study
}

func (b *worldBackend) newCrawler() *crawler.Crawler {
	srv := b.study.hostingServer()
	client := srv.Client()
	if b.study.faultInj != nil {
		// The in-process fault seam: the adversary lives in the
		// transport, so the hosting substrate itself stays honest and
		// the crawler's retry/breaker path is exercised for real.
		cp := *client
		cp.Transport = faultx.Transport(client.Transport, b.study.faultInj, nil)
		client = &cp
	}
	return crawler.New(crawler.Config{Concurrency: b.study.Opts.CrawlConcurrency},
		client, b.study.World.Web.Resolver(srv.URL))
}

func (b *worldBackend) CrawlStream(ctx context.Context, tasks []crawler.Task) <-chan crawler.Result {
	return b.newCrawler().CrawlStream(ctx, tasks)
}

func (b *worldBackend) SearchHash(_ context.Context, h imagex.Hash128) []reverse.Match {
	return b.study.World.Reverse.SearchHash(h)
}

func (b *worldBackend) WaybackSeenBefore(_ context.Context, rawURL string, cutoff time.Time) bool {
	return b.study.World.Wayback.SeenBefore(rawURL, cutoff)
}

func (b *worldBackend) VisitKind(_ context.Context, domain string) (urlx.Kind, bool) {
	return b.study.World.Web.VisitKind(domain)
}

func (b *worldBackend) Close() {}

// HTTPBackend routes every substrate access through a
// crawler.HTTPClient against live services. Lookup errors surface as
// empty results — the crawl outcome taxonomy already models transport
// failure — and are counted; Err reports the first one so tests can
// assert a clean run.
type HTTPBackend struct {
	hc *crawler.HTTPClient

	mu       sync.Mutex
	errCount int
	firstErr error
}

// NewHTTPBackend wraps an HTTP substrate client as a study backend.
func NewHTTPBackend(hc *crawler.HTTPClient) *HTTPBackend {
	return &HTTPBackend{hc: hc}
}

func (b *HTTPBackend) note(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.errCount++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// Err returns the first substrate lookup error, if any.
func (b *HTTPBackend) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.firstErr
}

// ErrCount returns the number of failed substrate lookups.
func (b *HTTPBackend) ErrCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.errCount
}

func (b *HTTPBackend) CrawlStream(ctx context.Context, tasks []crawler.Task) <-chan crawler.Result {
	return b.hc.CrawlStream(ctx, tasks)
}

func (b *HTTPBackend) SearchHash(ctx context.Context, h imagex.Hash128) []reverse.Match {
	out, err := b.hc.SearchHash(ctx, h)
	b.note(err)
	return out
}

func (b *HTTPBackend) WaybackSeenBefore(ctx context.Context, rawURL string, cutoff time.Time) bool {
	seen, err := b.hc.SeenBefore(ctx, rawURL, cutoff)
	b.note(err)
	return seen
}

func (b *HTTPBackend) VisitKind(ctx context.Context, domain string) (urlx.Kind, bool) {
	kind, ok, err := b.hc.VisitKind(ctx, domain)
	b.note(err)
	return kind, ok
}

func (b *HTTPBackend) Close() {
	b.hc.Close()
}
