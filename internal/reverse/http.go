package reverse

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/imagex"
)

// The HTTP layer mirrors how the study consumed TinEye: an API the
// pipeline queries per image, receiving a JSON report of matches. The
// pipeline's client for it is crawler.HTTPClient.

// SearchResponse is the wire format of a search result.
type SearchResponse struct {
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
		json.NewEncoder(w).Encode(SearchResponse{Matches: ix.SearchHash(h)})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"indexed":%d}`, ix.Len())
	})
	return mux
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
