// Command ewserve runs the study as a live HTTP service: POST
// /v1/study generates (or reuses) a world and runs the study on it —
// cached, coalesced, bounded; see internal/studysvc. Point
// cmd/ewpipeline -remote or cmd/ewsweep -remote (one POST /v1/study
// per sweep cell) at its address. A study takes a faultx profile in
// the request's "faults" field, which the study's crawl faces as the
// deterministic adversary (rate limits, flaky 5xx, link rot, dead
// hosts).
//
// Usage:
//
//	ewserve [-study :8084]
//	        [-study-runs N] [-study-cache N] [-study-max-scale F]
//	        [-study-queue N] [-study-queue-wait 2s]
//	        [-trace-buffer 64] [-pprof 127.0.0.1:6060]
//	        [-shutdown-timeout 10s]
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

	"repro/internal/pipeline"
	"repro/internal/studysvc"
	"repro/internal/tracex"
)

func main() {
	studyAddr := flag.String("study", "127.0.0.1:8084", "study service listen address")
	studyRuns := flag.Int("study-runs", 2, "max concurrent study runs")
	studyCache := flag.Int("study-cache", 16, "study result cache size (LRU)")
	studyMaxScale := flag.Float64("study-max-scale", 0.25, "largest scale the study service accepts")
	studyQueue := flag.Int("study-queue", 0, "admission queue depth before shedding (0 = 2×study-runs, negative disables queueing)")
	studyQueueWait := flag.Duration("study-queue-wait", 0, "longest a queued request waits for a run slot before shedding (0 = default)")
	traceBuffer := flag.Int("trace-buffer", tracex.DefaultMaxTraces, "recent traces kept for GET /v1/trace (0 disables tracing and the per-request and per-run log lines)")
	pprofAddr := flag.String("pprof", "", "mount net/http/pprof on this address (empty disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown deadline")
	flag.Parse()

	lg := slog.New(slog.NewJSONHandler(os.Stderr, nil)).With("service", "ewserve")

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
	svc := studysvc.New(studysvc.Config{
		MaxConcurrentRuns: *studyRuns,
		CacheSize:         *studyCache,
		MaxScale:          *studyMaxScale,
		MaxQueueDepth:     *studyQueue,
		MaxQueueWait:      *studyQueueWait,
		BaseContext:       ctx,
		Log:               lg.With("component", "studysvc"),
		Tracer:            tracer,
	})
	services := []service{{"study", *studyAddr, svc.Handler()}}
	if *pprofAddr != "" {
		// Mount the pprof handlers explicitly rather than importing for
		// side effects: the profiling surface stays off the study
		// listener and exists only when asked for.
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
		// Name what a slow shutdown is waiting on: the request IDs
		// still open when the deadline starts ticking.
		open := svc.InFlightRequests()
		lg.Info("shutting down", "open_requests", len(open), "requests", open)
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
		"example_study", fmt.Sprintf("curl -X POST http://%s/v1/study -d '{\"seed\":2019,\"scale\":0.02}'", *studyAddr),
		"example_stats", "curl http://"+*studyAddr+"/v1/stats",
		"stop", "Ctrl-C (twice to force)")

	if err := g.Wait(); err != nil {
		lg.Error("server failed", "err", err.Error())
		os.Exit(1)
	}
	lg.Info("all servers stopped")
}
