// Command ewserve runs the study's simulated web substrate AND the
// study itself as live HTTP services: the hosting world (image-sharing
// + cloud-storage sites), the reverse image search, the Wayback
// archive, and the study service (POST /v1/study — cached, coalesced,
// bounded; see internal/studysvc). Together they make the full
// measurement remotely drivable: point cmd/ewpipeline -remote or
// cmd/ewsweep -remote (one POST /v1/study per sweep cell) at the study
// address, or a crawler.HTTPClient at the substrate addresses.
//
// Usage:
//
//	ewserve [-seed N] [-scale F]
//	        [-hosting :8081] [-reverse :8082] [-wayback :8083] [-study :8084]
//	        [-study-runs N] [-study-cache N] [-study-max-scale F]
//	        [-study-queue N] [-study-queue-wait 2s]
//	        [-trace-buffer 64] [-pprof 127.0.0.1:6060]
//	        [-shutdown-timeout 10s] [-faults profile]
//
// -faults wraps the three substrate handlers in internal/faultx's
// deterministic fault-injection middleware (chaos testing: rate
// limits, flaky 5xx, link rot, dead hosts), so remote crawlers face
// the same adversary `core.Options.Faults` injects in-process.
//
// All operational output is JSON lines on stderr (log/slog's JSON
// handler): the lifecycle events, plus one line per study-service
// request (trace reads excepted) and one per study run. Those are the
// service's request and run spans written out as they end — request
// ID, status and duration — so they need tracing on: -trace-buffer 0
// turns them off along with the trace ring. -pprof mounts
// net/http/pprof on a separate loopback address for live profiling.
//
// Lifecycle: all listeners are opened before anything serves, so a bad
// address fails the process immediately. A failed server tears the
// whole process down cleanly through the error group. On SIGINT or
// SIGTERM every server gets a graceful shutdown bounded by
// -shutdown-timeout — logging any still-open study requests by ID so
// an operator can tell what a slow shutdown is waiting on; a second
// signal kills the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultx"
	"repro/internal/pipeline"
	"repro/internal/reverse"
	"repro/internal/studysvc"
	"repro/internal/synth"
	"repro/internal/tracex"
	"repro/internal/wayback"
)

func main() {
	seed := flag.Uint64("seed", 2019, "world seed")
	scale := flag.Float64("scale", 0.05, "corpus scale")
	hostingAddr := flag.String("hosting", "127.0.0.1:8081", "hosting world listen address")
	reverseAddr := flag.String("reverse", "127.0.0.1:8082", "reverse image search listen address")
	waybackAddr := flag.String("wayback", "127.0.0.1:8083", "wayback archive listen address")
	studyAddr := flag.String("study", "127.0.0.1:8084", "study service listen address (empty disables)")
	studyRuns := flag.Int("study-runs", 2, "max concurrent study runs")
	studyCache := flag.Int("study-cache", 16, "study result cache size (LRU)")
	studyMaxScale := flag.Float64("study-max-scale", 0.25, "largest scale the study service accepts")
	studyQueue := flag.Int("study-queue", 0, "admission queue depth before shedding (0 = 2×study-runs, negative disables queueing)")
	studyQueueWait := flag.Duration("study-queue-wait", 0, "longest a queued request waits for a run slot before shedding (0 = default)")
	traceBuffer := flag.Int("trace-buffer", tracex.DefaultMaxTraces, "recent traces kept for GET /v1/trace (0 disables tracing and the per-request and per-run log lines)")
	faults := flag.String("faults", "", `inject deterministic faults into the substrate handlers (faultx profile, e.g. "ratelimit=*;failures=2" or "rot=0.3;down=oron.com"; see internal/faultx)`)
	pprofAddr := flag.String("pprof", "", "mount net/http/pprof on this address (empty disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown deadline")
	flag.Parse()

	lg := slog.New(slog.NewJSONHandler(os.Stderr, nil)).With("service", "ewserve")

	start := time.Now()
	w := synth.Generate(synth.Config{Seed: *seed, Scale: *scale})
	lg.Info("world ready",
		"elapsed_ms", time.Since(start).Milliseconds(),
		"seed", *seed, "scale", *scale,
		"reverse_records", w.Reverse.Len(), "archived_urls", w.Wayback.NumURLs())

	// The signal context is the whole process's root: servers stop on
	// it, and the study service receives it as BaseContext so
	// in-flight studies are cancelled at shutdown instead of running
	// headless to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type service struct {
		name string
		addr string
		h    http.Handler
	}
	services := []service{
		{"hosting", *hostingAddr, w.Web},
		{"reverse", *reverseAddr, reverse.Handler(w.Reverse)},
		{"wayback", *waybackAddr, wayback.Handler(w.Wayback)},
	}
	if plan, err := faultx.ParseProfile(*faults); err != nil {
		fmt.Fprintln(os.Stderr, "ewserve:", err)
		os.Exit(1)
	} else if plan != nil {
		// Chaos mode: remote crawlers face the same deterministic
		// adversary the in-process seam injects. One injector spans all
		// three substrate services so scheduled faults share counters.
		inj := faultx.NewInjector(plan)
		services[0].h = faultx.Middleware(inj, faultx.PathHost)(services[0].h)
		services[1].h = faultx.Middleware(inj, faultx.FixedHost("reverse"))(services[1].h)
		services[2].h = faultx.Middleware(inj, faultx.FixedHost("wayback"))(services[2].h)
		lg.Info("fault injection enabled", "profile", *faults, "plan", plan.String())
	}
	// svc outlives the loop so the shutdown watcher can report which
	// study requests are still open when the deadline starts ticking.
	var svc *studysvc.Service
	if *studyAddr != "" {
		var tracer *tracex.Tracer
		if *traceBuffer > 0 {
			// Seed the span-id source from the process start time: a
			// server and its remote clients must mint non-colliding span
			// ids within one shared trace, and each process's SeqIDs
			// counter alone cannot guarantee that.
			tracer = tracex.New(tracex.Config{
				IDs:       tracex.NewSeqIDs(uint64(time.Now().UnixNano())),
				MaxTraces: *traceBuffer,
			})
		}
		svc = studysvc.New(studysvc.Config{
			MaxConcurrentRuns: *studyRuns,
			CacheSize:         *studyCache,
			MaxScale:          *studyMaxScale,
			MaxQueueDepth:     *studyQueue,
			MaxQueueWait:      *studyQueueWait,
			BaseContext:       ctx,
			Log:               lg.With("component", "studysvc"),
			Tracer:            tracer,
		})
		services = append(services, service{"study", *studyAddr, svc.Handler()})
	}
	if *pprofAddr != "" {
		// Mount the pprof handlers explicitly rather than importing for
		// side effects: the profiling surface stays off the study and
		// substrate listeners and exists only when asked for.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		services = append(services, service{"pprof", *pprofAddr, mux})
	}

	// Open every listener before serving anything: a bad address fails
	// the process now, not from a goroutine later.
	servers := make([]*http.Server, 0, len(services))
	listeners := make([]net.Listener, 0, len(services))
	for _, s := range services {
		ln, err := net.Listen("tcp", s.addr)
		if err != nil {
			lg.Error("listen failed", "server", s.name, "addr", s.addr, "err", err.Error())
			for _, open := range listeners {
				_ = open.Close() // best-effort cleanup on the exit path
			}
			os.Exit(1)
		}
		listeners = append(listeners, ln)
		servers = append(servers, &http.Server{Handler: s.h, ReadHeaderTimeout: 5 * time.Second})
		lg.Info("listening", "server", s.name, "url", "http://"+ln.Addr().String())
	}

	g, gctx := pipeline.NewErrGroup(ctx)
	for i := range servers {
		srv, name, ln := servers[i], services[i].name, listeners[i]
		g.Go(func() error {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				return fmt.Errorf("%s: %w", name, err)
			}
			return nil
		})
	}
	// Shutdown watcher: a signal or any failed server cancels gctx;
	// every server then gets a graceful shutdown with a deadline.
	g.Go(func() error {
		<-gctx.Done()
		// Restore default signal handling: a second Ctrl-C now kills
		// the process immediately instead of being swallowed.
		stop()
		if svc != nil {
			// Name what a slow shutdown is waiting on: the request IDs
			// still open when the deadline starts ticking.
			open := svc.InFlightRequests()
			lg.Info("shutting down", "open_requests", len(open), "requests", open)
		} else {
			lg.Info("shutting down")
		}
		shctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		var firstErr error
		for i, srv := range servers {
			if err := srv.Shutdown(shctx); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s shutdown: %w", services[i].name, err)
			}
		}
		return firstErr
	})

	lg.Info("ready",
		"example_curl", "curl http://"+*hostingAddr+"/imgur.com/landing",
		"example_study", fmt.Sprintf("curl -X POST http://%s/v1/study -d '{\"seed\":2019,\"scale\":0.02}'", *studyAddr),
		"example_stats", "curl http://"+*studyAddr+"/v1/stats",
		"stop", "Ctrl-C (twice to force)")

	if err := g.Wait(); err != nil {
		lg.Error("server failed", "err", err.Error())
		os.Exit(1)
	}
	lg.Info("all servers stopped")
}
