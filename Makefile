GO ?= go

.PHONY: verify vet fmt-check lint build test test-race perfbench-check bench-smoke bench-diff bench-baseline bench-scale-runs bench-scale bench-scale-baseline load-smoke load-slo load-baseline chaos fuzz-smoke clean

verify: vet lint build test perfbench-check

vet:
	$(GO) vet ./...

# Lint gate: the tree must be gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Project-invariant gate: the ewlint analyzer suite (determinism,
# memokey, ctxhygiene, logfield — see DESIGN.md §10). Hard gate: any
# finding fails the build; suppress a deliberate exception with a
# reasoned //lint:ignore directive at the site.
lint: fmt-check
	$(GO) run ./cmd/ewlint ./...

build:
	$(GO) build ./...

# -vet=all runs every go vet check (not just the default test-time
# subset) over each package as its tests compile.
test:
	$(GO) test -vet=all ./...

test-race:
	$(GO) test -race ./...

# The benchmark harness is its own module (perfbench/go.mod, with
# `replace repro => ../`), so `go build ./...` at the root never
# compiles it. Vet and test it here, so an internal API change that
# breaks the benchmark fails verify instead of the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Smoke benchmarks: three iterations of the study-level set — the
# one-worker/concurrent full-study pair, the cross-seed sweep and the
# cold half of the artefact-reuse pair — then its warm half at 2000
# iterations (~0.3 s of memo hits; at 3 or 200 iterations single runs
# on a shared 2-core box spread up to 40% above their median), then
# the Crawl, PhotoDNAFilter and HashImage kernels and the OCR's
# screenshot and model-photo recognisers at the default benchtime with
# -benchmem, so their B/op and allocs/op are gated too.
# All runs land in one benchstat-ready text file and one fresh JSON
# artifact for CI upload, kept distinct from the committed
# BENCH_smoke.json baseline so a smoke run never clobbers the
# regression reference. Each run lands in its own pass file first, as
# in bench-scale-runs, so a failing benchmark fails the target instead
# of exiting with tee's status.
bench-smoke:
	rm -f bench_smoke.txt
	$(GO) test -run='^$$' -bench='^Benchmark(StudyRun(OneWorker|Concurrent)|SweepCrossSeed|ArtefactReuse)$$' -skip='^BenchmarkArtefactReuse$$/^warm$$' -benchtime=3x . > bench_smoke.pass.txt || { cat bench_smoke.pass.txt; exit 1; }
	tee -a bench_smoke.txt < bench_smoke.pass.txt
	$(GO) test -run='^$$' -bench='^BenchmarkArtefactReuse$$/^warm$$' -benchtime=2000x . > bench_smoke.pass.txt || { cat bench_smoke.pass.txt; exit 1; }
	tee -a bench_smoke.txt < bench_smoke.pass.txt
	$(GO) test -run='^$$' -bench='^Benchmark(Crawl|PhotoDNAFilter|HashImage)$$' -benchmem . > bench_smoke.pass.txt || { cat bench_smoke.pass.txt; exit 1; }
	tee -a bench_smoke.txt < bench_smoke.pass.txt
	$(GO) test -run='^$$' -bench='^BenchmarkRecognize(Screenshot|ModelPhoto)$$' -benchmem ./internal/ocr > bench_smoke.pass.txt || { cat bench_smoke.pass.txt; exit 1; }
	tee -a bench_smoke.txt < bench_smoke.pass.txt
	$(GO) run ./cmd/benchjson -in bench_smoke.txt -out BENCH_smoke.fresh.json

# Benchmark-regression gate: a fresh smoke run must stay within
# BENCH_TOLERANCE of the committed baseline; it also fails when a
# baseline benchmark disappears. Absolute ns/op only compares
# meaningfully on similar hardware — refresh the baseline from the
# machine class that gates (for CI, the uploaded BENCH_smoke.fresh.json
# artifact of a green run is exactly the file to commit).
BENCH_TOLERANCE ?= 0.30
bench-diff: bench-smoke
	$(GO) run ./cmd/benchjson -diff -baseline BENCH_smoke.json -in BENCH_smoke.fresh.json -tolerance $(BENCH_TOLERANCE)

# Refresh the committed baseline from five fresh smoke runs (run after
# an intentional perf change, then commit BENCH_smoke.json). benchjson
# folds each benchmark's five rows into the run with the median ns/op,
# so one noisy run does not set the reference.
bench-baseline:
	rm -f bench_smoke_runs.txt
	for i in 1 2 3 4 5; do $(MAKE) bench-smoke && cat bench_smoke.txt >> bench_smoke_runs.txt || exit 1; done
	$(GO) run ./cmd/benchjson -in bench_smoke_runs.txt -out BENCH_smoke.json

# Three passes of the scale set: synth.Generate at scales 0.1/1.0 plus
# one complete cold StudyRun at scale 1.0, at GOMAXPROCS 1 and 2, one
# iteration per pass. benchjson folds each row's three runs to the
# median-ns/op run: a single run of these rows swung 11.2–15.7 s on
# one tree on a shared 2-core box, so one pass cannot tell a
# regression from a noisy neighbour. Each pass lands in its own file
# first: through a pipe into tee, a failed pass would exit with tee's
# status, and the fold would take the median of the passes that ran.
bench-scale-runs:
	rm -f bench_scale1.txt
	for i in 1 2 3; do \
		$(GO) test -run='^$$' -bench='^BenchmarkScale' -benchtime=1x -cpu 1,2 -timeout 30m . > bench_scale1.pass.txt || { cat bench_scale1.pass.txt; exit 1; }; \
		tee -a bench_scale1.txt < bench_scale1.pass.txt; \
	done
	$(GO) run ./cmd/benchjson -in bench_scale1.txt -out BENCH_scale1.fresh.json

# Scale-1.0 gate: each row's median of three runs held to its own row
# of the committed BENCH_scale1.json baseline, which is built the same
# way.
bench-scale: bench-scale-runs
	$(GO) run ./cmd/benchjson -diff -baseline BENCH_scale1.json -in BENCH_scale1.fresh.json -tolerance $(BENCH_TOLERANCE)

# Refresh the committed scale baseline after an intentional perf
# change (then commit BENCH_scale1.json): the same three runs, each row
# folded to its median.
bench-scale-baseline: bench-scale-runs
	cp BENCH_scale1.fresh.json BENCH_scale1.json

# SLO load smoke: boot ewserve in the background (loopback port 18084
# so a dev server on the default is undisturbed), drive a short
# target-RPS window at it with `ewsweep -load` (which waits for
# readiness itself) and write the resulting latency/shed artifact plus
# a Perfetto export of the sampled cold-start trace. The server log
# lands in ewserve_load.log for post-mortems.
LOAD_RPS ?= 30
LOAD_DURATION ?= 5s
load-smoke:
	$(GO) build -o ewserve_load_bin ./cmd/ewserve
	./ewserve_load_bin -study 127.0.0.1:18084 2> ewserve_load.log & \
	SRV=$$!; trap 'kill $$SRV 2>/dev/null' EXIT; \
	$(GO) run ./cmd/ewsweep -remote http://127.0.0.1:18084 -load \
		-rps $(LOAD_RPS) -duration $(LOAD_DURATION) -scale 0.01 \
		-bench-out BENCH_load.fresh.json \
		-trace-out trace_load.perfetto.json

# SLO gate: the fresh load artifact must stay within LOAD_TOLERANCE of
# the committed BENCH_load.json. The baseline is deliberately trimmed
# to the SLO terms — LoadStudyP95 (relative gate on p95 latency) and
# LoadStudyShed's shed_rate extra (its committed value is a budget, so
# the relative gate bounds the shed fraction absolutely) — while the
# fresh artifact's p50/p99 entries ride along ungated, for trend
# reading. Load percentiles are far noisier than microbenchmark ns/op,
# hence the wider default tolerance.
LOAD_TOLERANCE ?= 1.50
load-slo: load-smoke
	$(GO) run ./cmd/benchjson -diff -baseline BENCH_load.json -in BENCH_load.fresh.json -tolerance $(LOAD_TOLERANCE)

# Refresh the committed SLO baseline's p95 from a fresh smoke run.
# Deliberately NOT a straight copy: keep BENCH_load.json's structure
# (p95 + shed budget only) — update the ns_per_op by hand or re-trim.
load-baseline: load-smoke
	@echo "BENCH_load.fresh.json written; update BENCH_load.json's LoadStudyP95 ns_per_op from it,"
	@echo "keeping only the LoadStudyP95 and LoadStudyShed entries (the shed_rate value is the budget)."

# Chaos gate (DESIGN.md §13): the fault-injection suites — faultx
# itself plus every Fault/Breaker/Retry test in the crawler, the core
# fault tests (retryable equivalence, dead-host degradation) and the
# service — under the race detector with the fixed faultx seed, then
# the adversarial-hosts sweep ladder, whose JSON lands in
# sweep_adversarial.json for CI upload. The sweep run
# doubles as an end-to-end check that degraded cells still aggregate
# (ewsweep exits non-zero if any cell errors).
CHAOS_SEEDS ?= 2
CHAOS_SCALE ?= 0.02
chaos:
	$(GO) test -race ./internal/faultx
	$(GO) test -race -run 'Fault|Breaker|Retry|Backoff|Coverage' \
		./internal/crawler ./internal/core ./internal/studysvc
	$(GO) run ./cmd/ewsweep -preset adversarial-hosts \
		-seeds $(CHAOS_SEEDS) -scale $(CHAOS_SCALE) -quiet -json \
		> sweep_adversarial.json

# Fuzz smoke: short native-fuzz runs of the POST /v1/study body decode
# and canonicalization, of the SIMG and pack-zip decoders that read
# every crawled image and pack, of the OCR row-code kernel against its
# byte-matcher reference, of the Retry-After and traceparent header
# parsers, and of the fault-profile grammar behind POST /v1/study
# "faults". The committed seed corpora (internal/*/testdata/fuzz) run on
# every plain `go test`; this target explores past them.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalize -fuzztime=10s ./internal/studysvc
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/imagex
	$(GO) test -run='^$$' -fuzz=FuzzDecodePackZip -fuzztime=10s ./internal/imagex
	$(GO) test -run='^$$' -fuzz=FuzzRecognize -fuzztime=10s ./internal/ocr
	$(GO) test -run='^$$' -fuzz=FuzzParseRetryAfter -fuzztime=10s ./internal/faultx
	$(GO) test -run='^$$' -fuzz=FuzzParseProfile -fuzztime=10s ./internal/faultx
	$(GO) test -run='^$$' -fuzz=FuzzParseTraceparent -fuzztime=10s ./internal/tracex

clean:
	rm -f bench_smoke.txt bench_smoke.pass.txt bench_smoke_runs.txt bench_scale1.txt bench_scale1.pass.txt BENCH_smoke.fresh.json \
		BENCH_scale1.fresh.json BENCH_load.fresh.json ewserve_load.log ewserve_load_bin \
		trace_load.perfetto.json sweep_adversarial.json
