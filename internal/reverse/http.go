package reverse

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/faultx"
	"repro/internal/imagex"
)

// The HTTP layer mirrors how the study consumed TinEye: an API the
// pipeline queries per image, receiving a JSON report of matches.

// searchResponse is the wire format of a search result.
type searchResponse struct {
	Matches []Match `json:"matches"`
}

// Handler serves the index over HTTP:
//
//	GET /searchhash?h=<32 hex chars>  → 200 JSON {"matches": [...]}
//	GET /stats                        → 200 JSON {"indexed": N}
//
// /searchhash takes the composite perceptual hash (AHash then DHash,
// 16 hex chars each): callers hash locally and send 32 bytes, never
// the image payload.
func Handler(ix *Index) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/searchhash", func(w http.ResponseWriter, r *http.Request) {
		h, err := ParseHash128(r.URL.Query().Get("h"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(searchResponse{Matches: ix.SearchHash(h)})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"indexed":%d}`, ix.Len())
	})
	return mux
}

// Client queries a reverse-image-search service over HTTP, playing the
// role of the TinEye API client.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the service at baseURL (no trailing
// slash). httpClient may be nil (http.DefaultClient).
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{BaseURL: baseURL, HTTP: httpClient}
}

// SearchHash queries by precomputed composite hash via /searchhash.
func (c *Client) SearchHash(ctx context.Context, h imagex.Hash128) ([]Match, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/searchhash?h="+FormatHash128(h), nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// StatusError is a non-200 search response. RetryAfterHint exposes
// the parsed Retry-After header so retrying callers (crawler.
// HTTPClient) can honor the server's backoff request without this
// package knowing who retries.
type StatusError struct {
	StatusCode int
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("reverse: search returned status %d", e.StatusCode)
}

// RetryAfterHint returns the server's backoff request, if any.
func (e *StatusError) RetryAfterHint() time.Duration { return e.RetryAfter }

func (c *Client) do(req *http.Request) ([]Match, error) {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		// Read what the decoder left (the encoder's trailing newline)
		// so the keep-alive connection goes back to the pool; a reply
		// with more than a little left over is cheaper to drop.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{
			StatusCode: resp.StatusCode,
			RetryAfter: faultx.ParseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	var sr searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("reverse: bad response: %w", err)
	}
	return sr.Matches, nil
}

// FormatHash128 renders a composite hash as 32 hex characters (AHash
// then DHash), the /searchhash wire format.
func FormatHash128(h imagex.Hash128) string {
	return fmt.Sprintf("%016x%016x", uint64(h.A), uint64(h.D))
}

// ParseHash128 parses the /searchhash wire format.
func ParseHash128(s string) (imagex.Hash128, error) {
	var h imagex.Hash128
	if len(s) != 32 {
		return h, fmt.Errorf("reverse: hash must be 32 hex chars, got %d", len(s))
	}
	a, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return h, fmt.Errorf("reverse: bad hash: %w", err)
	}
	d, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return h, fmt.Errorf("reverse: bad hash: %w", err)
	}
	h.A, h.D = imagex.Hash(a), imagex.Hash(d)
	return h, nil
}
