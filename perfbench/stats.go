package main

import (
	"sort"
	"time"
)

// tailBeyond is how many ops must lie beyond the reported tail
// percentile: fewer would make tail_ms the reading of a handful of
// samples.
const tailBeyond = 10

// tailPercentile returns the highest whole percentile of n samples that
// leaves at least beyond samples above it, and the 1-based
// nearest-rank position of that percentile in the sorted samples. With
// nearest rank, percentile p sits at rank ceil(p·n/100), leaving
// n − rank samples beyond it; the largest p with n − rank ≥ beyond is
// floor(100·(n−beyond)/n). ok is false when n ≤ beyond.
func tailPercentile(n, beyond int) (pct, rank int, ok bool) {
	if n <= beyond || beyond < 0 {
		return 0, 0, false
	}
	pct = 100 * (n - beyond) / n
	rank = (pct*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return pct, rank, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMS returns the durations in milliseconds, ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// median of the values (the mean of the middle two for an even count);
// 0 for none, which JSON can carry where NaN cannot.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencySummary is the end-to-end view of one pass's timed ops.
type latencySummary struct {
	ops        int
	p50MS      float64
	tailPct    int
	tailMS     float64
	throughput float64 // ops per second of the measured window, Σ op latency
}

func summarize(lat []time.Duration) latencySummary {
	s := latencySummary{ops: len(lat)}
	if len(lat) == 0 {
		return s
	}
	ms := sortedMS(lat)
	s.p50MS = median(ms)
	if pct, rank, ok := tailPercentile(len(ms), tailBeyond); ok {
		s.tailPct, s.tailMS = pct, ms[rank-1]
	} else {
		s.tailPct, s.tailMS = 100, ms[len(ms)-1]
	}
	var window time.Duration
	for _, d := range lat {
		window += d
	}
	s.throughput = float64(len(lat)) / window.Seconds()
	return s
}

// layerAcc collects a traced pass's per-op layer samples: most layers
// report the median over ops; the runtime counters, which land on a few
// ops whenever a collection runs, report their mean per op.
type layerAcc struct {
	samples map[string][]float64
	gcCPUMS float64
	allocMB float64
	ops     int
}

func newLayerAcc() *layerAcc { return &layerAcc{samples: map[string][]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.samples[name] = append(a.samples[name], v) }

// op accounts one timed op's runtime counters between two samples.
func (a *layerAcc) op(r0, r1 runtimeSample) {
	a.ops++
	a.gcCPUMS += (r1.gcCPU - r0.gcCPU) * 1000
	a.allocMB += allocMB(r0, r1)
}

// layers returns the per-layer metrics, including the live heap after
// the pass.
func (a *layerAcc) layers() map[string]float64 {
	out := map[string]float64{"runtime.heap_live_mb": heapLiveMB()}
	for name, vs := range a.samples {
		out[name] = median(vs)
	}
	if a.ops > 0 {
		out["runtime.gc_cpu_ms"] = a.gcCPUMS / float64(a.ops)
		out["runtime.alloc_mb"] = a.allocMB / float64(a.ops)
	}
	return out
}
