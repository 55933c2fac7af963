package hosting

import (
	"net/http/httptest"
	"testing"

	"repro/internal/urlx"
)

// FuzzParseLandingKind fuzzes the landing-page parser that
// HTTPClient.VisitKind runs on every body a hosting server returns.
// Any body must parse without panicking, to one of the three kinds;
// and every page serveLanding renders — for any domain and any
// configured kind — must parse back to the kind it advertises. The
// seed corpus lives in testdata/fuzz/FuzzParseLandingKind; `make
// fuzz-smoke` runs a short fuzz.
func FuzzParseLandingKind(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, domain string, kind int) {
		if k, ok := ParseLandingKind(body); ok && k != urlx.KindUnknown &&
			k != urlx.KindImageSharing && k != urlx.KindCloudStorage {
			t.Fatalf("ParseLandingKind(%q) = kind %d", body, k)
		}

		site := &Site{cfg: SiteConfig{Domain: domain, Kind: urlx.Kind(kind)}}
		rec := httptest.NewRecorder()
		site.serveLanding(rec)
		want := site.cfg.Kind
		if want != urlx.KindImageSharing && want != urlx.KindCloudStorage {
			want = urlx.KindUnknown
		}
		if got, ok := ParseLandingKind(rec.Body.Bytes()); !ok || got != want {
			t.Fatalf("landing page of %q (kind %d) parses to (%v, %v), want (%v, true):\n%s",
				domain, kind, got, ok, want, rec.Body.String())
		}
	})
}
