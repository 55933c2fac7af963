// Package wayback is the reproduction's Internet Archive Wayback
// Machine: a snapshot index recording when URLs were captured. The
// provenance analysis (§4.5) uses it to decide whether a matched URL
// was online before the image was posted in the forum ("to analyse
// whether the images were online before they were posted in the
// forums, we have used the Wayback Machine").
//
// The archive is exposed both as an in-process index and over HTTP
// with an API shaped like the real availability endpoint.
package wayback

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/faultx"
)

// StatusError is a non-200 availability response. RetryAfterHint
// exposes the parsed Retry-After header so retrying callers (crawler.
// HTTPClient) can honor the server's backoff request without this
// package knowing who retries.
type StatusError struct {
	StatusCode int
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("wayback: status %d", e.StatusCode)
}

// RetryAfterHint returns the server's backoff request, if any.
func (e *StatusError) RetryAfterHint() time.Duration { return e.RetryAfter }

// Archive is a snapshot index. Safe for concurrent use.
type Archive struct {
	mu    sync.RWMutex
	snaps map[string][]time.Time // sorted ascending
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{snaps: make(map[string][]time.Time)}
}

// Add records a capture of the URL at time t.
func (a *Archive) Add(rawURL string, t time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.snaps[rawURL]
	i := sort.Search(len(s), func(i int) bool { return s[i].After(t) })
	s = append(s, time.Time{})
	copy(s[i+1:], s[i:])
	s[i] = t
	a.snaps[rawURL] = s
}

// NumURLs returns the number of distinct archived URLs.
func (a *Archive) NumURLs() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.snaps)
}

// FirstSeen returns the earliest capture of the URL.
func (a *Archive) FirstSeen(rawURL string) (time.Time, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s := a.snaps[rawURL]
	if len(s) == 0 {
		return time.Time{}, false
	}
	return s[0], true
}

// SeenBefore reports whether the URL was captured strictly before the
// cutoff.
func (a *Archive) SeenBefore(rawURL string, cutoff time.Time) bool {
	t, ok := a.FirstSeen(rawURL)
	return ok && t.Before(cutoff)
}

// Snapshots returns all capture times for the URL, ascending.
func (a *Archive) Snapshots(rawURL string) []time.Time {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s := a.snaps[rawURL]
	out := make([]time.Time, len(s))
	copy(out, s)
	return out
}

// availabilityResponse mirrors the shape of the real availability API.
type availabilityResponse struct {
	URL       string `json:"url"`
	Available bool   `json:"available"`
	FirstSeen string `json:"first_seen,omitempty"`
	Snapshots int    `json:"snapshots"`
}

// Handler serves the archive over HTTP:
//
//	GET /available?url=<u>            → capture availability
//	GET /available?url=<u>&before=<t> → availability strictly before t (RFC3339)
func Handler(a *Archive) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/available", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		target := q.Get("url")
		if target == "" {
			http.Error(w, "missing url parameter", http.StatusBadRequest)
			return
		}
		resp := availabilityResponse{URL: target}
		first, ok := a.FirstSeen(target)
		if ok {
			if beforeRaw := q.Get("before"); beforeRaw != "" {
				cutoff, err := time.Parse(time.RFC3339, beforeRaw)
				if err != nil {
					http.Error(w, "bad before parameter", http.StatusBadRequest)
					return
				}
				ok = first.Before(cutoff)
			}
		}
		if ok {
			resp.Available = true
			resp.FirstSeen = first.UTC().Format(time.RFC3339)
			resp.Snapshots = len(a.Snapshots(target))
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	return mux
}

// Client queries a wayback service over HTTP.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the service at baseURL. httpClient
// may be nil.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{BaseURL: baseURL, HTTP: httpClient}
}

// SeenBefore reports whether the URL was captured strictly before the
// cutoff, asking the remote service.
func (c *Client) SeenBefore(ctx context.Context, rawURL string, cutoff time.Time) (bool, error) {
	u := fmt.Sprintf("%s/available?url=%s&before=%s",
		c.BaseURL, url.QueryEscape(rawURL), url.QueryEscape(cutoff.UTC().Format(time.RFC3339)))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		// Read what the decoder left (the encoder's trailing newline)
		// so the keep-alive connection goes back to the pool; a reply
		// with more than a little left over is cheaper to drop.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return false, &StatusError{
			StatusCode: resp.StatusCode,
			RetryAfter: faultx.ParseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	var ar availabilityResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return false, fmt.Errorf("wayback: bad response: %w", err)
	}
	return ar.Available, nil
}
