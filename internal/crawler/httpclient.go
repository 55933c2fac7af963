package crawler

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultx"
	"repro/internal/hosting"
	"repro/internal/imagex"
	"repro/internal/reverse"
	"repro/internal/tracex"
	"repro/internal/urlx"
	"repro/internal/wayback"
)

// HTTPConfig configures an HTTPClient.
type HTTPConfig struct {
	// HostingURL is the base URL of the hosting-world server (no
	// trailing slash). Required for crawling and landing-page visits.
	HostingURL string
	// ReverseURL is the base URL of the reverse-image-search service.
	// Required for SearchHash.
	ReverseURL string
	// WaybackURL is the base URL of the Wayback availability service.
	// Required for SeenBefore.
	WaybackURL string

	// Crawl carries the fetch behaviour (concurrency, retries, backoff,
	// body cap). Crawl.PerHostDelay is the per-virtual-host rate limit.
	Crawl Config

	// RequestTimeout bounds every HTTP round trip (default 30s).
	RequestTimeout time.Duration
	// MaxRetries bounds re-attempts for reverse/wayback/visit lookups
	// after transport errors (default 2; crawl fetches retry per
	// Crawl.MaxRetries).
	MaxRetries int
	// BackoffBase is the deterministic backoff unit for those lookups:
	// attempt n sleeps n*BackoffBase (default 25ms), unless the failed
	// attempt carried a Retry-After hint — then the hint doubles per
	// attempt instead (see Backoff).
	BackoffBase time.Duration
	// MaxBackoff caps any single lookup retry sleep (default 2s).
	MaxBackoff time.Duration
	// MaxIdleConnsPerHost sizes the connection pool (default: the crawl
	// concurrency — the substrate is typically one real host).
	MaxIdleConnsPerHost int

	// Client overrides the underlying *http.Client (tests inject an
	// httptest server's client). The pool settings above are ignored
	// when set; RequestTimeout still applies.
	Client *http.Client
}

func (c HTTPConfig) withDefaults() HTTPConfig {
	c.Crawl = c.Crawl.withDefaults()
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.MaxIdleConnsPerHost <= 0 {
		c.MaxIdleConnsPerHost = c.Crawl.Concurrency
	}
	return c
}

// HTTPClient is the crawler's network backend: it reaches the whole
// web substrate — the hosting world, the reverse image search and the
// Wayback archive — over real net/http, the way the paper's crawler
// reached imgur, TinEye and the Internet Archive. An in-process study
// talks to the world's data structures directly; an HTTP-backed study
// routes every substrate access through one of these, against servers
// such as cmd/ewserve.
//
// The client is built for sustained crawls: one pooled transport is
// shared by every request (connection reuse across the fetch, search
// and availability paths), per-virtual-host rate limiting spaces
// requests like the in-process crawler's politeness delay, retries are
// bounded with a deterministic linear backoff (no jitter — retry
// schedules must be reproducible), and every round trip carries a
// context timeout. Safe for concurrent use.
type HTTPClient struct {
	cfg     HTTPConfig
	http    *http.Client
	crawler *Crawler
}

// NewHTTPClient builds a client for the substrate at the configured
// base URLs.
func NewHTTPClient(cfg HTTPConfig) *HTTPClient {
	cfg = cfg.withDefaults()
	var hc *http.Client
	if cfg.Client != nil {
		cp := *cfg.Client // shallow copy so setting Timeout is local
		hc = &cp
	} else {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * cfg.MaxIdleConnsPerHost,
			MaxIdleConnsPerHost: cfg.MaxIdleConnsPerHost,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if hc.Timeout == 0 {
		hc.Timeout = cfg.RequestTimeout
	}
	return &HTTPClient{
		cfg:     cfg,
		http:    hc,
		crawler: New(cfg.Crawl, hc, hosting.Resolver(cfg.HostingURL)),
	}
}

// CrawlStream fetches every task against the hosting server,
// delivering results in task order: it plugs into the study's stage
// engine exactly like the in-process crawler's stream.
func (h *HTTPClient) CrawlStream(ctx context.Context, tasks []Task) <-chan Result {
	return h.crawler.CrawlStream(ctx, tasks)
}

// retry runs fn up to 1+MaxRetries times with deterministic backoff
// between attempts — linear by default, or the server's own
// Retry-After hint (doubling, capped) when the failed attempt carried
// one. The whole retried lookup is one leaf span named name, so a
// trace attributes a slow remote cell to the specific substrate call
// that stalled — retries included; the span's "attempts" attr counts
// them.
func (h *HTTPClient) retry(ctx context.Context, name string, fn func(context.Context) error) (err error) {
	ctx, sp := tracex.StartSpan(ctx, name)
	attempts := 0
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.SetAttr("attempts", strconv.Itoa(attempts))
		sp.End()
	}()
	var lastErr error
	for attempt := 0; attempt <= h.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(Backoff(attempt-1, h.cfg.BackoffBase, h.cfg.MaxBackoff, RetryAfterHint(lastErr))):
			}
		}
		attempts++
		if lastErr = fn(ctx); lastErr == nil {
			return nil
		}
	}
	return lastErr
}

// getJSON GETs rawURL and decodes its JSON reply into v. A non-200
// reply is a *StatusError carrying the server's Retry-After hint.
func (h *HTTPClient) getJSON(ctx context.Context, rawURL string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return err
	}
	resp, err := h.http.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// Read what the decoder left (the encoder's trailing newline)
		// so the keep-alive connection goes back to the pool; a reply
		// with more than a little left over is cheaper to drop.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return &StatusError{
			StatusCode: resp.StatusCode,
			RetryAfter: faultx.ParseRetryAfter(resp.Header.Get("Retry-After")),
			Msg:        fmt.Sprintf("crawler: %s returned status %d", req.URL.Path, resp.StatusCode),
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("crawler: bad response from %s: %w", req.URL.Path, err)
	}
	return nil
}

// SearchHash reverse-searches a precomputed composite hash, the way
// the study queried the TinEye API.
func (h *HTTPClient) SearchHash(ctx context.Context, hash imagex.Hash128) ([]reverse.Match, error) {
	if h.cfg.ReverseURL == "" {
		return nil, fmt.Errorf("crawler: no reverse service configured")
	}
	var sr reverse.SearchResponse
	err := h.retry(ctx, "reverse search", func(ctx context.Context) error {
		sr = reverse.SearchResponse{}
		return h.getJSON(ctx, h.cfg.ReverseURL+"/searchhash?h="+reverse.FormatHash128(hash), &sr)
	})
	if err != nil {
		return nil, err
	}
	return sr.Matches, nil
}

// SeenBefore asks the remote Wayback service whether the URL was
// captured strictly before the cutoff.
func (h *HTTPClient) SeenBefore(ctx context.Context, rawURL string, cutoff time.Time) (bool, error) {
	if h.cfg.WaybackURL == "" {
		return false, fmt.Errorf("crawler: no wayback service configured")
	}
	u := h.cfg.WaybackURL + "/available?url=" + url.QueryEscape(rawURL) +
		"&before=" + url.QueryEscape(cutoff.UTC().Format(time.RFC3339))
	var ar wayback.AvailabilityResponse
	err := h.retry(ctx, "wayback lookup", func(ctx context.Context) error {
		ar = wayback.AvailabilityResponse{}
		return h.getJSON(ctx, u, &ar)
	})
	return err == nil && ar.Available, err
}

// VisitKind fetches a domain's landing page from the hosting server
// and reports the site kind it advertises — the over-the-wire form of
// the snowball-sampling visit. The substrate's authoritative negatives
// — 502 (unregistered domain) and 503 (defunct site) — report
// (KindUnknown, false, nil), matching the in-process oracle. Any other
// failure (transport error, unexpected status, unparseable page) is
// retried on the deterministic backoff schedule and, if it persists,
// surfaces as a non-nil error alongside (KindUnknown, false) so
// callers can tell "the site said no" from "the lookup failed".
func (h *HTTPClient) VisitKind(ctx context.Context, domain string) (urlx.Kind, bool, error) {
	var kind urlx.Kind
	var ok bool
	err := h.retry(ctx, "visit landing", func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			h.cfg.HostingURL+"/"+domain+"/landing", nil)
		if err != nil {
			return err
		}
		resp, err := h.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadGateway, http.StatusServiceUnavailable:
			kind, ok = urlx.KindUnknown, false
			return nil
		default:
			return &StatusError{
				StatusCode: resp.StatusCode,
				RetryAfter: faultx.ParseRetryAfter(resp.Header.Get("Retry-After")),
				Msg:        fmt.Sprintf("crawler: landing page for %q returned status %d", domain, resp.StatusCode),
			}
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return err
		}
		if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
			return fmt.Errorf("crawler: landing page for %q has content type %q", domain, resp.Header.Get("Content-Type"))
		}
		kind, ok = hosting.ParseLandingKind(body)
		if !ok {
			// Every substrate landing page carries the site-kind
			// marker; a page without one is a lookup failure, not an
			// authoritative negative.
			return fmt.Errorf("crawler: landing page for %q has no site-kind marker", domain)
		}
		return nil
	})
	if err != nil {
		return urlx.KindUnknown, false, err
	}
	return kind, ok, nil
}

// Close releases pooled connections.
func (h *HTTPClient) Close() {
	h.http.CloseIdleConnections()
}
