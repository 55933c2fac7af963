package studysvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultx"
	"repro/internal/sweep"
	"repro/internal/tracex"
)

// Client drives a remote study service — what cmd/ewpipeline -remote
// uses against a live cmd/ewserve.
//
// Study submissions honor the service's admission control: a 429
// response carries a Retry-After hint, and the client backs off and
// retries with capped deterministic (exponential, jitter-free) delays
// before giving up. Set MaxRetries negative to disable — a load
// generator measuring the shed rate must see the 429s, not hide them.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// MaxRetries bounds how many times a shed (429) study submission
	// is retried (default 3; negative disables retrying).
	MaxRetries int
	// MaxBackoff caps the per-attempt retry delay (default 5s). The
	// delay for attempt n is min(RetryAfter << n, MaxBackoff), seeded
	// from the server's Retry-After header.
	MaxBackoff time.Duration
}

// NewClient returns a client for the service at baseURL (no trailing
// slash). httpClient may be nil (http.DefaultClient).
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{BaseURL: baseURL, HTTP: httpClient}
}

// HTTPError is a non-2xx service response: the status code, the
// error body the server sent (not just the code — the body carries
// the reason), and the parsed Retry-After hint when present.
type HTTPError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("studysvc: %s (status %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("studysvc: status %d", e.Status)
}

// Run submits a study request and waits for its result.
func (c *Client) Run(ctx context.Context, r Request) (*Envelope, error) {
	return c.run(ctx, r, "")
}

// clientReqCounter numbers study submissions process-wide; the ids it
// yields ("c-N") are deterministic for a given submission sequence, so
// a reproduced run produces the same server-side log correlation.
var clientReqCounter atomic.Int64

// run submits a study request with an optional raw query string,
// retrying shed (429) submissions under the client's backoff policy.
// One submission is one logical request however many times it is
// retried: every attempt carries the same X-Request-ID, so the
// server's logs correlate the retry sequence, and the same traceparent
// (when ctx carries an open span), so every attempt lands in the
// caller's trace.
func (c *Client) run(ctx context.Context, r Request, query string) (*Envelope, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	u := c.BaseURL + "/v1/study"
	if query != "" {
		u += "?" + query
	}
	reqID := "c-" + strconv.FormatInt(clientReqCounter.Add(1), 10)
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 3
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	for attempt := 0; ; attempt++ {
		// The body reader must be fresh per attempt: a retried request
		// cannot replay a drained reader.
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", reqID)
		tracex.Inject(ctx, req.Header)
		env, err := send[Envelope](c, req, "study")
		var he *HTTPError
		if err == nil || attempt >= maxRetries ||
			!errors.As(err, &he) || he.Status != http.StatusTooManyRequests {
			return env, err
		}
		// Shed: back off as the server asked, doubling per attempt up
		// to the cap. Deterministic on purpose — no jitter — so test
		// and sweep behavior is reproducible.
		wait := he.RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		wait = min(wait<<attempt, maxBackoff)
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// Get fetches a run by id.
func (c *Client) Get(ctx context.Context, id string) (*Envelope, error) {
	return get[Envelope](ctx, c, "/v1/study/"+id, "study")
}

// Artefact fetches one named artefact of a completed run — the
// rendered section(s) for a table/figure name ("table5") or an
// artefact name ("actors").
func (c *Client) Artefact(ctx context.Context, id, name string) (*ArtefactEnvelope, error) {
	return get[ArtefactEnvelope](ctx, c,
		"/v1/study/"+url.PathEscape(id)+"/artefact/"+url.PathEscape(name), "artefact")
}

// Trace fetches one trace from the server's ring by (32-hex-digit)
// trace id — typically the id the caller's own tracer minted, after a
// traceparent-propagated run.
func (c *Client) Trace(ctx context.Context, id string) (*tracex.Trace, error) {
	return get[tracex.Trace](ctx, c, "/v1/trace/"+url.PathEscape(id), "trace")
}

// Traces lists the trace ids in the server's recent-trace ring,
// oldest first.
func (c *Client) Traces(ctx context.Context) ([]string, error) {
	list, err := get[struct {
		Traces []string `json:"traces"`
	}](ctx, c, "/v1/trace", "trace list")
	if err != nil {
		return nil, err
	}
	return list.Traces, nil
}

// TraceExport fetches one trace in Chrome trace-event form (the
// ?format=perfetto export), raw.
func (c *Client) TraceExport(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/trace/"+url.PathEscape(id)+"?format=perfetto", nil)
	if err != nil {
		return nil, err
	}
	var raw []byte
	err = c.do(req, func(body io.Reader) (err error) {
		raw, err = io.ReadAll(io.LimitReader(body, 16<<20))
		return err
	})
	return raw, err
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	return get[Stats](ctx, c, "/v1/stats", "stats")
}

// List fetches the run listing (cached and in-flight studies).
func (c *Client) List(ctx context.Context) (*RunList, error) {
	return get[RunList](ctx, c, "/v1/study", "list")
}

// do performs req and hands a 200 or 202 reply's body to read; any
// other status becomes an *HTTPError. Either way the body is drained
// (bounded) before it is closed: a json.Decoder stops at the end of
// its value, leaving the encoder's trailing newline unread, and
// closing an unread body drops the keep-alive connection.
func (c *Client) do(req *http.Request, read func(io.Reader) error) error {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return decodeError(resp)
	}
	return read(resp.Body)
}

// send performs req and decodes its JSON reply as a T; what names the
// reply in a decode error.
func send[T any](c *Client, req *http.Request, what string) (*T, error) {
	v := new(T)
	err := c.do(req, func(body io.Reader) error {
		if err := json.NewDecoder(body).Decode(v); err != nil {
			return fmt.Errorf("studysvc: bad %s response: %w", what, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// get is send for a GET of path.
func get[T any](ctx context.Context, c *Client, path, what string) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	return send[T](c, req, what)
}

// Backend adapts the client to sweep.Backend: each cell becomes a POST
// /v1/study against the live service. Running a sweep this way is load
// generation — N concurrent study requests driving the service's
// worker pool, coalescing and cache — while the aggregates stay
// bit-identical to a local sweep, because the service computes each
// cell's Summary with the same code.
type Backend struct {
	Client *Client
}

// RunCell submits one cell and waits for the service's answer. The
// report is trimmed from the response: a sweep only folds summaries.
func (b Backend) RunCell(ctx context.Context, cell sweep.Cell) (sweep.CellResult, error) {
	env, err := b.Client.run(ctx, Request{
		Seed: cell.Seed, Scale: cell.Scale, AnnotationSize: cell.Annotation,
		Workers: cell.Workers, CrawlConcurrency: cell.CrawlConcurrency,
		Faults: cell.Faults,
	}, "report=false")
	if err != nil {
		return sweep.CellResult{}, err
	}
	if env.Status != StatusDone {
		return sweep.CellResult{}, fmt.Errorf("studysvc: run %s %s: %s", env.ID, env.Status, env.Error)
	}
	if env.Summary == nil {
		return sweep.CellResult{}, fmt.Errorf("studysvc: run %s returned no summary", env.ID)
	}
	return sweep.CellResult{
		Summary: *env.Summary,
		Elapsed: time.Duration(env.ElapsedMS) * time.Millisecond,
		Cached:  env.Cached,
	}, nil
}

// decodeError turns a non-2xx response into an *HTTPError carrying
// the server's error body — the reason, not just the code — and any
// Retry-After hint.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	e := &HTTPError{Status: resp.StatusCode}
	var er errorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		e.Msg = er.Error
	} else if msg := string(bytes.TrimSpace(body)); msg != "" {
		e.Msg = msg
	}
	e.RetryAfter = faultx.ParseRetryAfter(resp.Header.Get("Retry-After"))
	return e
}
