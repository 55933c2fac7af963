// Command perfbench is the repository benchmark: it measures the study
// pipeline end to end and layer by layer on three workloads, checks
// every output, and prints one JSON result line. See README.md for the
// workloads, the metrics and what each layer metric should move.
//
//	bash perfbench/run.sh --workload cold-study --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
)

// env is one set-up instance of a workload, ready to run its timed ops.
type env interface {
	// run issues the workload's ops once, timing each; traced adds the
	// per-layer measurements around (never inside) the timed calls.
	run(ctx context.Context, traced bool) pass
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// opsPerSecond is the nominal op rate on the reference machine
	// (2-core Xeon, README.md): a run issues seconds × opsPerSecond ops,
	// rounded to whole multiples of quantum, so the op count — and with
	// it the tail percentile — is fixed by the arguments, not by timing.
	opsPerSecond float64
	quantum      int
	setup        func(ctx context.Context, seed uint64, ops int, traced bool) (env, error)
}

var workloads = []workload{
	{name: "cold-study", opsPerSecond: coldOpsPerSecond, quantum: 1, setup: setupCold},
	{name: "serve-warm", opsPerSecond: warmOpsPerSecond, quantum: 100, setup: setupWarm},
	{name: "serve-churn", opsPerSecond: churnOpsPerSecond, quantum: churnCycleOps, setup: setupChurn},
}

func (w workload) ops(seconds int) int {
	n := int(float64(seconds)*w.opsPerSecond/float64(w.quantum)+0.5) * w.quantum
	return max(n, (tailBeyond/w.quantum+1)*w.quantum)
}

// pass is the outcome of one run over a workload's ops.
type pass struct {
	lat    []time.Duration // per timed op
	cpu    time.Duration   // process CPU summed over the timed ops
	failed int
	// problems describes failed ops and failed run-level checks.
	problems []string
	// counts are the exact counts this pass must reproduce on every
	// run of the same workload, seed and length.
	counts map[string]int64
	// layers are the per-layer metrics of a traced pass.
	layers map[string]float64
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.problem(format, args...)
}

// problem records a failed check; fail also counts the op it failed.
func (p *pass) problem(format string, args ...any) {
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median, so one slow set-up does not move it.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold-study, serve-warm or serve-churn")
	seed := flag.Uint64("seed", 1, "workload seed: fixes every op of the run")
	seconds := flag.Int("seconds", 20, "nominal length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	state := flag.String("state", "", "directory for the per-seed count records of the repeat check (empty = no check)")
	flag.Parse()

	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := runWorkload(workloads[i], *seed, *seconds, *trace == 1, *state)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func runWorkload(w workload, seed uint64, seconds int, traced bool, state string) (result, error) {
	ctx := context.Background()
	steal0, probe0 := stealTicks(), speedProbeMS()
	n := w.ops(seconds)

	var setups []float64
	var e env
	for range setupRepeats {
		if e != nil {
			release(e)
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(ctx, seed, n, false); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	plain := e.run(ctx, false)
	release(e)
	passes := []pass{plain}
	if traced {
		te, err := w.setup(ctx, seed, n, true)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, te.run(ctx, true))
		release(te)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for k, p := range passes {
		kind := "plain"
		if k == 1 {
			kind = "traced"
		}
		key := fmt.Sprintf("%s-seed%d-%ds-%s", w.name, seed, seconds, kind)
		if err := checkRepeat(state, key, p.counts); err != nil {
			p.problem("repeat check: %v", err)
		}
		res.Attempted += len(p.lat) + p.failed
		res.Failed += p.failed
		for _, msg := range p.problems {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %s\n", w.name, kind, msg)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	stamp := stampMachine()
	stamp.StealTicks -= steal0
	stamp.SpeedProbeMS = [2]float64{probe0, speedProbeMS()}
	s := summarize(plain.lat)
	info, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": seed, "ops": s.ops, "tail_percentile": s.tailPct,
		"setups_s": setups, "gc_cycles": gcCycles(), "machine": stamp,
	})
	fmt.Println(string(info))

	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["p50_ms"] = metric{s.p50MS, "ms"}
		res.Metrics["tail_ms"] = metric{s.tailMS, "ms"}
		res.Metrics["throughput_per_s"] = metric{s.throughput, "1/s"}
		res.Metrics["cpu_ms_per_op"] = metric{plain.cpu.Seconds() * 1000 / float64(max(1, s.ops)), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
		return res, nil
	}
	tp := passes[1]
	if tp.layers == nil { // the pass stopped before measuring its layers
		tp.layers = map[string]float64{}
	}
	ts := summarize(tp.lat)
	tp.layers["trace.p50_ms"] = ts.p50MS
	if s.p50MS > 0 {
		tp.layers["trace.overhead_pct"] = 100 * (ts.p50MS/s.p50MS - 1)
	}
	for _, l := range layerMetrics {
		res.Metrics[l.name] = metric{tp.layers[l.name], l.unit}
	}
	for k := range tp.layers {
		if !slices.ContainsFunc(layerMetrics, func(l layerMetric) bool { return l.name == k }) {
			return result{}, fmt.Errorf("internal: layer metric %q is not declared", k)
		}
	}
	return res, nil
}

// release closes an env and collects its memory, so the next set-up
// does not pile its heap on the last one's garbage.
func release(e env) {
	e.close()
	runtime.GC()
}

// layerMetric is one per-layer metric of a traced run. Every traced run
// reports all of them; a layer a workload does not exercise reads 0
// there (README.md says which workload owns which metric).
type layerMetric struct {
	name, unit, better string
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	inMS := func(n string) layerMetric { return layerMetric{n, "ms", "lower"} }
	inMiB := func(n string) layerMetric { return layerMetric{n, "MiB", "lower"} }
	count := func(n, better string) layerMetric { return layerMetric{n, "count", better} }
	out := []layerMetric{inMS("synth.busy_ms"), inMiB("synth.alloc_mb")}
	for _, n := range core.Artefacts() {
		out = append(out, inMS("node."+n+".busy_ms"), inMiB("node."+n+".alloc_mb"))
	}
	for _, c := range studyCounts {
		out = append(out, count("count."+c, "higher"))
	}
	out = append(out, count("count.crawl_retries", "lower"),
		inMS("report.render_ms"), inMS("runtime.gc_cpu_ms"), inMiB("runtime.alloc_mb"),
		inMiB("runtime.heap_live_mb"), layerMetric{"dag.overlap", "ratio", "higher"})
	for _, c := range []string{classPartial, classRepeat, classArtefact, classFull, classStats} {
		out = append(out, inMS("http."+c+".p50_ms"), inMS("direct."+c+".p50_ms"))
	}
	out = append(out, inMS("http.world_miss.p50_ms"), inMS("http.world_hit.p50_ms"),
		count("svc.runs_started", "lower"), count("svc.cache_hits", "higher"),
		count("svc.evictions", "lower"), count("memo.hits", "higher"),
		count("memo.computes", "lower"), count("memo.evictions", "lower"),
		count("world.generations", "lower"),
		inMS("trace.p50_ms"), layerMetric{"trace.overhead_pct", "%", "lower"})
	return out
}
