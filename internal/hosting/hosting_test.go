package hosting

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/imagex"
	"repro/internal/urlx"
)

func newTestWorld(t *testing.T) (*World, *httptest.Server) {
	t.Helper()
	w := NewWorld()
	srv := httptest.NewServer(w)
	t.Cleanup(srv.Close)
	return w, srv
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServeImage(t *testing.T) {
	w, srv := newTestWorld(t)
	site := w.AddSite(SiteConfig{Domain: "imgur.com", Kind: urlx.KindImageSharing})
	im := imagex.GenModel(1, 0, imagex.PoseNude, 32)
	site.PutImage("aB3dE", im)

	resp, body := get(t, srv.URL+"/imgur.com/aB3dE")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeSIMG {
		t.Fatalf("content-type %q", ct)
	}
	back, err := imagex.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != im.W {
		t.Fatal("served image corrupted")
	}
}

func TestServePack(t *testing.T) {
	w, srv := newTestWorld(t)
	site := w.AddSite(SiteConfig{Domain: "mediafire.com", Kind: urlx.KindCloudStorage})
	imgs := []*imagex.Image{
		imagex.GenModel(1, 0, imagex.PoseNude, 32),
		imagex.GenModel(1, 1, imagex.PoseDressed, 32),
	}
	if err := site.PutPack("file/xyz", imgs); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, srv.URL+"/mediafire.com/file/xyz")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != ContentTypeZip {
		t.Fatalf("status %d ct %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var d imagex.PackDecoder
	back, _, err := d.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("pack has %d images", len(back))
	}
}

func TestDeletedReturns404(t *testing.T) {
	w, srv := newTestWorld(t)
	site := w.AddSite(SiteConfig{Domain: "imgur.com", Kind: urlx.KindImageSharing})
	site.PutImage("gone", imagex.GenModel(2, 0, imagex.PoseNude, 32))
	if !site.SetStatus("gone", StatusDeleted) {
		t.Fatal("SetStatus failed")
	}
	resp, _ := get(t, srv.URL+"/imgur.com/gone")
	if resp.StatusCode != 404 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestSetStatusUnknownPath(t *testing.T) {
	w, _ := newTestWorld(t)
	site := w.AddSite(SiteConfig{Domain: "x.com", Kind: urlx.KindImageSharing})
	if site.SetStatus("nope", StatusDeleted) {
		t.Fatal("SetStatus on missing object returned true")
	}
}

func TestTakedownOnImageSiteServesBanner(t *testing.T) {
	w, srv := newTestWorld(t)
	site := w.AddSite(SiteConfig{Domain: "imgur.com", Kind: urlx.KindImageSharing})
	site.PutImage("tos", imagex.GenModel(3, 0, imagex.PoseNude, 32))
	site.SetStatus("tos", StatusTakedown)
	resp, body := get(t, srv.URL+"/imgur.com/tos")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != ContentTypeSIMG {
		t.Fatalf("status %d ct %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	banner, err := imagex.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	// The banner must be a text image, not the original model photo.
	if f := banner.SkinStats().Fraction; f > 0.01 {
		t.Fatal("takedown served the original image")
	}
}

func TestTakedownOnCloudStorageReturns410(t *testing.T) {
	w, srv := newTestWorld(t)
	site := w.AddSite(SiteConfig{Domain: "mediafire.com", Kind: urlx.KindCloudStorage})
	site.PutPack("p", []*imagex.Image{imagex.GenModel(1, 0, imagex.PoseNude, 32)})
	site.SetStatus("p", StatusTakedown)
	resp, _ := get(t, srv.URL+"/mediafire.com/p")
	if resp.StatusCode != 410 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestLoginWall(t *testing.T) {
	w, srv := newTestWorld(t)
	site := w.AddSite(SiteConfig{Domain: "dropbox.com", Kind: urlx.KindCloudStorage, RequiresLogin: true})
	site.PutPack("s/abc", []*imagex.Image{imagex.GenModel(1, 0, imagex.PoseNude, 32)})
	resp, _ := get(t, srv.URL+"/dropbox.com/s/abc")
	if resp.StatusCode != 401 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestDefunctSite(t *testing.T) {
	w, srv := newTestWorld(t)
	w.AddSite(SiteConfig{Domain: "oron.com", Kind: urlx.KindCloudStorage, Defunct: true})
	resp, _ := get(t, srv.URL+"/oron.com/anything")
	if resp.StatusCode != 503 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestUnknownDomain(t *testing.T) {
	_, srv := newTestWorld(t)
	resp, _ := get(t, srv.URL+"/nonexistent.com/x")
	if resp.StatusCode != 502 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMissingDomainSegment(t *testing.T) {
	_, srv := newTestWorld(t)
	resp, _ := get(t, srv.URL+"/")
	if resp.StatusCode != 400 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestResolver(t *testing.T) {
	w := NewWorld()
	resolve := w.Resolver("http://127.0.0.1:9999")
	got, err := resolve("https://IMGUR.com/aB3dE?x=1")
	if err != nil {
		t.Fatal(err)
	}
	want := "http://127.0.0.1:9999/imgur.com/aB3dE?x=1"
	if got != want {
		t.Fatalf("resolve = %q want %q", got, want)
	}
	if _, err := resolve("://bad"); err == nil {
		t.Fatal("bad URL accepted")
	}
	if _, err := resolve("https:///nohost"); err == nil {
		t.Fatal("hostless URL accepted")
	}
}

func TestVisitKind(t *testing.T) {
	w := NewWorld()
	w.AddSite(SiteConfig{Domain: "imgur.com", Kind: urlx.KindImageSharing})
	w.AddSite(SiteConfig{Domain: "oron.com", Kind: urlx.KindCloudStorage, Defunct: true})
	if k, ok := w.VisitKind("imgur.com"); !ok || k != urlx.KindImageSharing {
		t.Fatal("VisitKind imgur wrong")
	}
	if _, ok := w.VisitKind("oron.com"); ok {
		t.Fatal("defunct site should not be visitable")
	}
	if _, ok := w.VisitKind("unknown.com"); ok {
		t.Fatal("unknown domain visitable")
	}
}

func TestAddSiteIdempotent(t *testing.T) {
	w := NewWorld()
	a := w.AddSite(SiteConfig{Domain: "x.com", Kind: urlx.KindImageSharing})
	b := w.AddSite(SiteConfig{Domain: "x.com", Kind: urlx.KindCloudStorage})
	if a != b {
		t.Fatal("AddSite created duplicate site")
	}
}
