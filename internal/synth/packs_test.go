package synth

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"

	"repro/internal/forum"
	"repro/internal/imagex"
)

// servablePacksDigest77 is the SHA-256 over every servable pack of the
// seed-77, scale-0.02 world, in thread and link order, as the generator
// wrote them when it still zipped every pack.
const servablePacksDigest77 = "5cee7dfbe5838492a98a38d6e4a86fc1983297951069f442c756606aec617745"

// TestUnservablePacksBuildNoArchive fetches every pack link of a world
// from its hosting server. A pack the server never serves (deleted,
// taken down, behind a login wall or on a defunct site) must cost no
// deflate: the members synth deflated must be exactly the distinct
// members of the packs it serves. Every served pack must be the
// archive its members deflate to, and all of them together the bytes
// the generator wrote before unservable packs were skipped.
func TestUnservablePacksBuildNoArchive(t *testing.T) {
	packs := newPackMemo()
	w := generateWith(context.Background(), Config{Seed: 77, Scale: 0.02}, newRasterMemo(), packs)
	tids := make([]forum.ThreadID, 0, len(w.Truth))
	for tid, tr := range w.Truth {
		if tr.TOP != nil {
			tids = append(tids, tid)
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	sum := sha256.New()
	members := make(map[string]struct{})
	var served, unserved int
	for _, tid := range tids {
		for _, raw := range w.Truth[tid].TOP.PackURLs {
			u, err := url.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			w.Web.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/"+u.Host+u.Path, nil))
			if rec.Code != http.StatusOK {
				unserved++
				continue
			}
			served++
			data := rec.Body.Bytes()
			var d imagex.PackDecoder
			images, _, err := d.Decode(data)
			if err != nil {
				t.Fatalf("pack %s: %v", raw, err)
			}
			again, err := imagex.EncodePackZip(images)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("pack %s is not the archive of its members (%v)", raw, err)
			}
			for _, im := range images {
				members[fmt.Sprintf("%dx%d:%s", im.W, im.H, im.Pix)] = struct{}{}
			}
			sum.Write(data)
		}
	}
	if served == 0 || unserved == 0 {
		t.Fatalf("%d served and %d unserved packs: the world exercises nothing", served, unserved)
	}
	if len(packs.m) != len(members) {
		t.Fatalf("synth deflated %d distinct members; the served packs hold %d", len(packs.m), len(members))
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != servablePacksDigest77 {
		t.Fatalf("served packs digest %s, want %s", got, servablePacksDigest77)
	}
}
