// Package hosting simulates the third-party web substrate the paper
// crawls: image-sharing sites (imgur, Gyazo, ...) serving single
// preview/proof images, and cloud-storage services (MediaFire, mega,
// ...) serving zipped packs. Sites exhibit the failure modes the paper
// documents — deleted files, Terms-of-Service takedowns that replace
// an image with an error banner, registration walls the crawler must
// not cross, and wholesale site shutdowns (oron) — all over real HTTP.
//
// All sites of a World are served by one net/http handler that routes
// on the first path segment (the virtual domain), e.g.
// "/imgur.com/aB3dE". World.Resolver rewrites in-forum URLs such as
// "https://imgur.com/aB3dE" onto a live server's base URL, playing the
// role DNS plays for the real crawler.
package hosting

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/imagex"
	"repro/internal/urlx"
)

// Content types served by the simulated sites.
const (
	ContentTypeSIMG = "image/x-simg"
	ContentTypeZip  = "application/zip"
	ContentTypeHTML = "text/html; charset=utf-8"
)

// ObjectStatus describes what has become of an uploaded object.
type ObjectStatus int

// Object lifecycle states.
const (
	// StatusLive serves the original payload.
	StatusLive ObjectStatus = iota
	// StatusDeleted returns 404 (expired free-account links, user
	// deletions).
	StatusDeleted
	// StatusTakedown returns a 200 error-banner image on image-sharing
	// sites ("This image violates our Terms of Use and has been
	// removed from view") and 410 on cloud storage.
	StatusTakedown
)

// Object is one hosted payload.
type Object struct {
	Data        []byte
	ContentType string
	Status      ObjectStatus
}

// SiteConfig describes a simulated hosting site.
type SiteConfig struct {
	Domain string
	Kind   urlx.Kind
	// RequiresLogin gates all downloads behind an account (Dropbox,
	// Google Drive); the crawler must respect the wall.
	RequiresLogin bool
	// Defunct shuts the whole site down (oron): every request returns
	// 503.
	Defunct bool
}

// Site is one simulated hosting service. Safe for concurrent use.
type Site struct {
	cfg     SiteConfig
	mu      sync.RWMutex
	objects map[string]*Object
}

// Config returns the site's configuration.
func (s *Site) Config() SiteConfig { return s.cfg }

// Put stores an object at a path (without leading slash).
func (s *Site) Put(path string, obj Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[strings.TrimPrefix(path, "/")] = &obj
}

// PutImage stores a live SIMG image.
func (s *Site) PutImage(path string, im *imagex.Image) {
	s.Put(path, Object{Data: im.Encode(), ContentType: ContentTypeSIMG})
}

// PutPack stores a live zip pack.
func (s *Site) PutPack(path string, images []*imagex.Image) error {
	data, err := imagex.EncodePackZip(images)
	if err != nil {
		return err
	}
	s.Put(path, Object{Data: data, ContentType: ContentTypeZip})
	return nil
}

// SetStatus changes the lifecycle state of an object; it reports
// whether the object exists.
func (s *Site) SetStatus(path string, st ObjectStatus) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[strings.TrimPrefix(path, "/")]
	if !ok {
		return false
	}
	obj.Status = st
	return true
}

// serve handles a request for path (already stripped of the domain
// segment).
func (s *Site) serve(w http.ResponseWriter, r *http.Request, path string) {
	if s.cfg.Defunct {
		http.Error(w, "service discontinued", http.StatusServiceUnavailable)
		return
	}
	if s.cfg.RequiresLogin {
		w.Header().Set("Content-Type", ContentTypeHTML)
		w.WriteHeader(http.StatusUnauthorized)
		fmt.Fprintf(w, "<html><body>Sign in to %s to continue</body></html>", s.cfg.Domain)
		return
	}
	s.mu.RLock()
	obj, ok := s.objects[path]
	s.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	switch obj.Status {
	case StatusDeleted:
		http.NotFound(w, r)
	case StatusTakedown:
		if s.cfg.Kind == urlx.KindImageSharing {
			// Image hosts show a banner image in place of the removed
			// content — the crawler downloads it, and the NSFV stage
			// later routes it to SFV.
			banner := imagex.GenErrorBanner(uint64(len(path)), "IMAGE REMOVED TOS VIOLATION", 160, 40)
			w.Header().Set("Content-Type", ContentTypeSIMG)
			w.Write(banner.Encode())
			return
		}
		http.Error(w, "file removed for terms of service violation", http.StatusGone)
	default:
		w.Header().Set("Content-Type", obj.ContentType)
		w.Write(obj.Data)
	}
}

// World is a registry of simulated sites behind one HTTP handler.
type World struct {
	mu    sync.RWMutex
	sites map[string]*Site
}

// NewWorld returns an empty hosting world.
func NewWorld() *World {
	return &World{sites: make(map[string]*Site)}
}

// AddSite registers a site; re-adding a domain returns the existing
// site.
func (w *World) AddSite(cfg SiteConfig) *Site {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.sites[cfg.Domain]; ok {
		return s
	}
	s := &Site{cfg: cfg, objects: make(map[string]*Object)}
	w.sites[cfg.Domain] = s
	return s
}

// Site returns the site for a domain.
func (w *World) Site(domain string) (*Site, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	s, ok := w.sites[domain]
	return s, ok
}

// ServeHTTP routes /<domain>/<path...> to the matching site.
func (w *World) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	p := strings.TrimPrefix(r.URL.Path, "/")
	domain, rest, _ := strings.Cut(p, "/")
	if domain == "" {
		http.Error(rw, "missing domain segment", http.StatusBadRequest)
		return
	}
	w.mu.RLock()
	site, ok := w.sites[domain]
	w.mu.RUnlock()
	if !ok {
		http.Error(rw, "unknown domain", http.StatusBadGateway)
		return
	}
	site.serve(rw, r, rest)
}

// Resolver returns a function that rewrites an in-forum URL
// ("https://imgur.com/aB3dE") onto the world server's base URL
// ("http://127.0.0.1:PORT/imgur.com/aB3dE"). baseURL must not end with
// a slash.
func (w *World) Resolver(baseURL string) func(string) (string, error) {
	return func(raw string) (string, error) {
		u, err := url.Parse(raw)
		if err != nil {
			return "", fmt.Errorf("hosting: bad url %q: %w", raw, err)
		}
		host := strings.ToLower(u.Hostname())
		if host == "" {
			return "", fmt.Errorf("hosting: url %q has no host", raw)
		}
		path := strings.TrimPrefix(u.Path, "/")
		resolved := baseURL + "/" + host
		if path != "" {
			resolved += "/" + path
		}
		if u.RawQuery != "" {
			resolved += "?" + u.RawQuery
		}
		return resolved, nil
	}
}

// VisitKind reports a site's kind, as a visit to its landing page
// would show it — the oracle behind snowball sampling. Unregistered
// and defunct domains report false.
func (w *World) VisitKind(domain string) (urlx.Kind, bool) {
	s, ok := w.Site(domain)
	if !ok || s.cfg.Defunct {
		return urlx.KindUnknown, false
	}
	return s.cfg.Kind, true
}
