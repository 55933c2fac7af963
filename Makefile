GO ?= go

.PHONY: verify vet fmt-check lint build test test-race perfbench-check bench-smoke bench-diff bench-baseline bench-scale bench-scale-baseline bench load-smoke load-slo load-baseline chaos fuzz-smoke clean

verify: vet lint build test perfbench-check

vet:
	$(GO) vet ./...

# Lint gate: the tree must be gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Project-invariant gate: the ewlint analyzer suite (determinism,
# poolpair, memokey, ctxhygiene — see DESIGN.md §10). Hard gate: any
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

# Three iterations of the one-worker/concurrent full-study pair plus
# the cross-seed sweep — fast sanity that the engine and the sweep
# orchestrator run end to end — emitted both as benchstat input
# (bench_*.txt) and as fresh JSON artifacts for CI upload. The fresh
# files are kept distinct from the committed BENCH_*.json baselines so
# a smoke run never clobbers the regression reference.
bench-smoke:
	$(GO) test -run='^$$' -bench='StudyRun(OneWorker|Concurrent)$$' -benchtime=3x . | tee bench_pipeline.txt
	$(GO) run ./cmd/benchjson -in bench_pipeline.txt -out BENCH_pipeline.fresh.json
	$(GO) test -run='^$$' -bench=SweepCrossSeed -benchtime=3x . | tee bench_sweep.txt
	$(GO) run ./cmd/benchjson -in bench_sweep.txt -out BENCH_sweep.fresh.json
	$(GO) test -run='^$$' -bench=ArtefactReuse -benchtime=3x . | tee bench_artefact.txt
	$(GO) run ./cmd/benchjson -in bench_artefact.txt -out BENCH_artefact.fresh.json

# Benchmark-regression gate: a fresh smoke run must stay within
# BENCH_TOLERANCE of the committed baselines; it also fails when a
# baseline benchmark disappears. Absolute ns/op only compares
# meaningfully on similar hardware — refresh the baselines from the
# machine class that gates (for CI, the uploaded BENCH_*.fresh.json
# artifact of a green run is exactly the file to commit).
BENCH_TOLERANCE ?= 0.30
bench-diff: bench-smoke
	$(GO) run ./cmd/benchjson -diff -baseline BENCH_pipeline.json -in BENCH_pipeline.fresh.json -tolerance $(BENCH_TOLERANCE)
	$(GO) run ./cmd/benchjson -diff -baseline BENCH_sweep.json -in BENCH_sweep.fresh.json -tolerance $(BENCH_TOLERANCE)
	$(GO) run ./cmd/benchjson -diff -baseline BENCH_artefact.json -in BENCH_artefact.fresh.json -tolerance $(BENCH_TOLERANCE)

# Refresh the committed baselines from a fresh smoke run (run after an
# intentional perf change, then commit the BENCH_*.json files).
bench-baseline: bench-smoke
	cp BENCH_pipeline.fresh.json BENCH_pipeline.json
	cp BENCH_sweep.fresh.json BENCH_sweep.json
	cp BENCH_artefact.fresh.json BENCH_artefact.json

# Scale-1.0 gate: the paper-scale cold numbers — synth.Generate at
# scales 0.1/1.0 plus one complete cold StudyRun at scale 1.0 — held
# to the committed BENCH_scale1.json baseline. One iteration each:
# the operations are seconds-to-tens-of-seconds long, so a single
# pass is already far above timer noise, and 3x would triple a job
# that exists to stay runnable on every push.
bench-scale:
	$(GO) test -run='^$$' -bench='^BenchmarkScale' -benchtime=1x -timeout 30m . | tee bench_scale1.txt
	$(GO) run ./cmd/benchjson -in bench_scale1.txt -out BENCH_scale1.fresh.json
	$(GO) run ./cmd/benchjson -diff -baseline BENCH_scale1.json -in BENCH_scale1.fresh.json -tolerance $(BENCH_TOLERANCE)

# Refresh the committed scale baseline after an intentional perf
# change (then commit BENCH_scale1.json).
bench-scale-baseline:
	$(GO) test -run='^$$' -bench='^BenchmarkScale' -benchtime=1x -timeout 30m . | tee bench_scale1.txt
	$(GO) run ./cmd/benchjson -in bench_scale1.txt -out BENCH_scale1.json

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# SLO load smoke: boot a small ewserve in the background (loopback
# 1808x ports so a dev server on the defaults is undisturbed), drive a
# short target-RPS window at it with `ewsweep -load` (which waits for
# readiness itself) and write the resulting latency/shed artifact plus
# a Perfetto export of the sampled cold-start trace. The server log
# lands in ewserve_load.log for post-mortems.
LOAD_RPS ?= 30
LOAD_DURATION ?= 5s
load-smoke:
	$(GO) build -o ewserve_load_bin ./cmd/ewserve
	./ewserve_load_bin -seed 2019 -scale 0.01 \
		-hosting 127.0.0.1:18081 -reverse 127.0.0.1:18082 \
		-wayback 127.0.0.1:18083 -study 127.0.0.1:18084 \
		2> ewserve_load.log & \
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
# equivalence pair and the service — under the race detector with the
# fixed faultx seed, then the adversarial-hosts sweep ladder, whose
# JSON lands in sweep_adversarial.json for CI upload. The sweep run
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

# Fuzz smoke: short native-fuzz runs of the /searchhash wire-format
# parser, the reverse-search input that crosses a process boundary,
# of the POST /v1/study body decode and canonicalization, of the SIMG
# and pack-zip decoders that read every crawled image and pack, and of
# the OCR row-code kernel against its byte-matcher reference. The committed seed corpora (internal/*/testdata/fuzz) run
# on every plain `go test`; this target explores past them.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseHash128 -fuzztime=10s ./internal/reverse
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalize -fuzztime=10s ./internal/studysvc
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/imagex
	$(GO) test -run='^$$' -fuzz=FuzzDecodePackZip -fuzztime=10s ./internal/imagex
	$(GO) test -run='^$$' -fuzz=FuzzRecognize -fuzztime=10s ./internal/ocr

clean:
	rm -f bench_pipeline.txt bench_sweep.txt bench_artefact.txt bench_scale1.txt \
		BENCH_pipeline.fresh.json BENCH_sweep.fresh.json BENCH_artefact.fresh.json \
		BENCH_scale1.fresh.json BENCH_load.fresh.json ewserve_load.log ewserve_load_bin \
		trace_load.perfetto.json sweep_adversarial.json
