package core

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/crawler"
	"repro/internal/reverse"
	"repro/internal/synth"
	"repro/internal/wayback"
)

// TestHTTPBackendRunMatchesInProcess pins the HTTP-crawl equivalence
// invariant: a study whose every substrate access — crawling, snowball
// landing-page visits, reverse image search, Wayback lookups — travels
// over real net/http against live servers must produce Results
// bit-identical to the in-process run for the same seed.
func TestHTTPBackendRunMatchesInProcess(t *testing.T) {
	opts := Options{
		Synth:          synth.Config{Seed: 7, Scale: 0.02, ImageSize: 48},
		AnnotationSize: 400,
		Workers:        4,
	}
	ctx := context.Background()

	inproc := NewStudy(opts)
	want, err := inproc.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Serve the substrate of an identically-seeded world, the way
	// cmd/ewserve does.
	served := synth.Generate(opts.Synth)
	hostSrv := httptest.NewServer(served.Web)
	defer hostSrv.Close()
	revSrv := httptest.NewServer(reverse.Handler(served.Reverse))
	defer revSrv.Close()
	waySrv := httptest.NewServer(wayback.Handler(served.Wayback))
	defer waySrv.Close()

	backend := NewHTTPBackend(crawler.NewHTTPClient(crawler.HTTPConfig{
		HostingURL: hostSrv.URL,
		ReverseURL: revSrv.URL,
		WaybackURL: waySrv.URL,
		Crawl:      crawler.Config{Concurrency: 8},
	}))
	remote := NewStudy(opts)
	remote.UseBackend(backend)
	got, err := remote.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Err(); err != nil {
		t.Fatalf("HTTP backend recorded %d lookup errors, first: %v", backend.ErrCount(), err)
	}

	wv := reflect.ValueOf(*want)
	gv := reflect.ValueOf(*got)
	rt := wv.Type()
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("Results.%s differs between in-process and HTTP-backed runs", name)
		}
	}
}

// TestHTTPBackendSequentialRun exercises the HTTP backend under the
// single-worker reference run as well: one worker or many, the study
// sits on the same Backend seam.
func TestHTTPBackendSequentialRun(t *testing.T) {
	opts := Options{
		Synth:            synth.Config{Seed: 11, Scale: 0.015, ImageSize: 48},
		AnnotationSize:   300,
		Workers:          1,
		CrawlConcurrency: 1,
	}
	ctx := context.Background()

	want, err := NewStudy(opts).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	served := synth.Generate(opts.Synth)
	hostSrv := httptest.NewServer(served.Web)
	defer hostSrv.Close()
	revSrv := httptest.NewServer(reverse.Handler(served.Reverse))
	defer revSrv.Close()
	waySrv := httptest.NewServer(wayback.Handler(served.Wayback))
	defer waySrv.Close()

	backend := NewHTTPBackend(crawler.NewHTTPClient(crawler.HTTPConfig{
		HostingURL: hostSrv.URL,
		ReverseURL: revSrv.URL,
		WaybackURL: waySrv.URL,
	}))
	remote := NewStudy(opts)
	remote.UseBackend(backend)
	got, err := remote.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Err(); err != nil {
		t.Fatalf("HTTP backend recorded %d lookup errors, first: %v", backend.ErrCount(), err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("single-worker HTTP-backed run differs from in-process run")
	}
}
