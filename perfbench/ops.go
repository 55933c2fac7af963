package main

// Op-sequence generators. Every workload's ops are drawn here from the
// workload seed alone, before anything runs, so a seed fixes the ops,
// their order and — because a single closed-loop caller waits for each
// reply — every cache hit, miss and eviction the service will count.
// The generators also predict those counts; the run checks the
// service's own counters against them.

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// worldSeed draws a synth seed: nonzero, so it never means "default".
func worldSeed(r *rand.Rand) uint64 { return 1 + r.Uint64N(1<<31) }

// --- cold-study ------------------------------------------------------------

// coldOp is one in-process study: generate the world, run the artefact
// graph, render the report.
type coldOp struct {
	Seed  uint64
	Scale float64
}

// coldOps draws n studies whose scales cover [lo, hi] log-uniformly.
// The scales are the n stratum midpoints of the log-uniform law, in a
// seed-shuffled order, so the median and tail ops sit at the same
// scale quantiles under every seed; each study has its own world seed.
func coldOps(seed uint64, n int, lo, hi float64) []coldOp {
	r := newRand(seed, 1)
	ops := make([]coldOp, n)
	span := math.Log(hi / lo)
	for i := range ops {
		s := lo * math.Exp(span*(float64(i)+0.5)/float64(n))
		ops[i] = coldOp{Seed: worldSeed(r), Scale: math.Round(s*1e4) / 1e4}
	}
	r.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// --- serve-warm ------------------------------------------------------------

// Request classes of the serve-warm workload.
const (
	classPartial  = "partial"  // result-cache miss, full memo hit, partial render
	classRepeat   = "repeat"   // exact repeat: result-cache hit
	classArtefact = "artefact" // repeat POST, then GET …/artefact/{name} of its id
	classFull     = "full"     // full-study variant: result-cache miss, full render
	classStats    = "stats"    // GET /v1/stats
)

// warmClasses fixes the serve-warm mix, fastest class first. Shares are
// exact per run (ops come in multiples of 100). They are chosen, not
// observed — there is no record of how a running ewserve is read — and
// chosen so that each end-to-end metric lands on the request class it
// is meant to measure (README.md, serve-warm):
//   - partial, the one-table request of ewreport -remote -only, is the
//     majority; at 63% the cumulative share crosses 50% a quarter of the
//     way into it, so p50_ms is a partial request, not the boundary
//     between two classes;
//   - full renders are 2%: tail_ms (p99 at the usual op counts) leaves
//     the slowest 1% beyond it, so it is the median full render, with
//     the class's slower half between it and the stalls a run happens
//     to hit;
//   - repeats, artefact reads and stats split the rest so that each
//     class has thousands of ops for its traced p50.
var warmClasses = []struct {
	name  string
	share float64
}{
	{classRepeat, 0.15},
	{classStats, 0.10},
	{classArtefact, 0.10},
	{classPartial, 0.63},
	{classFull, 0.02},
}

// fullOnlySection is left out of partial requests. Rendering it costs
// about 2.6 ms, most of a full render and eight times any other
// section on the reference machine: partials that include it made a
// heavy class five times the size of the full renders, which put p99 in
// the slowest tenth of that class, where a steal episode moved it by
// 60% while the median full render moved by 8%. Without it the full
// renders are the only heavy class and p99 sits in their middle, as
// warmClasses intends; its render cost still reaches tail_ms through
// every full render.
const fullOnlySection = "figure4"

// serviceCacheSize and serviceMaxWorkers are the studysvc defaults the
// generator simulates: the 16-run result LRU and the 32-worker limit.
const (
	serviceCacheSize  = 16
	serviceMaxWorkers = 32
)

// warmKey is one result-cache identity: a world, a worker count and a
// section filter ("" = the full study).
type warmKey struct {
	World    int // index into the setup's two worlds
	Workers  int
	Sections string // comma-joined, sorted
}

func (k warmKey) sections() []string {
	if k.Sections == "" {
		return nil
	}
	return strings.Split(k.Sections, ",")
}

// warmOp is one serve-warm op. Get is the section an artefact op reads
// back from the run its POST returned.
type warmOp struct {
	Class string
	Key   warmKey
	Get   string
}

// warmPlan is the serve-warm op sequence and the service counters it
// must move over the timed ops.
type warmPlan struct {
	Warmup []warmOp // untimed partial requests that fill the result LRU
	Ops    []warmOp
	// RunsStarted, CacheHits and Evictions are the /v1/stats deltas
	// the timed ops must produce.
	RunsStarted, CacheHits, Evictions int64
}

// lruSim mirrors the service's result LRU: most recent first.
type lruSim struct {
	keys      []warmKey
	evictions int64
}

func (l *lruSim) touch(k warmKey) {
	if i := slices.Index(l.keys, k); i >= 0 {
		l.keys = slices.Delete(l.keys, i, i+1)
	}
	l.keys = slices.Insert(l.keys, 0, k)
	for len(l.keys) > serviceCacheSize {
		l.keys = l.keys[:len(l.keys)-1]
		l.evictions++
	}
}

// warmOps draws n timed serve-warm ops (after warmup untimed ones) over
// the report's sections. setup lists the keys the setup already ran,
// oldest first.
//
// Partial keys are never reused, so each is a result-cache miss, and
// never include fullOnlySection. Full variants cycle through every
// (world, workers) pair the setup did not use, so a full key recurs
// only long after the LRU dropped it.
// Repeats target the 12 most recent keys, never one near the eviction
// end of the LRU. With the client waiting out each run's bookkeeping
// (server.idle), the outcome of every request is fixed by the
// sequence, not by timing.
func warmOps(seed uint64, n, warmup int, sections []string, setup []warmKey) warmPlan {
	r := newRand(seed, 2)
	var lru lruSim
	used := map[warmKey]bool{}
	for _, k := range setup {
		lru.touch(k)
		used[k] = true
	}
	var fulls []warmKey
	for w := range 2 {
		for workers := 0; workers <= serviceMaxWorkers; workers++ {
			if k := (warmKey{World: w, Workers: workers}); !used[k] {
				fulls = append(fulls, k)
			}
		}
	}
	r.Shuffle(len(fulls), func(i, j int) { fulls[i], fulls[j] = fulls[j], fulls[i] })

	partialSections := slices.DeleteFunc(slices.Clone(sections), func(s string) bool { return s == fullOnlySection })
	partial := func() warmOp {
		for {
			m := 1 + r.IntN(4)
			pick := slices.Clone(partialSections)
			r.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
			pick = pick[:m]
			slices.Sort(pick)
			k := warmKey{World: r.IntN(2), Workers: r.IntN(serviceMaxWorkers + 1), Sections: strings.Join(pick, ",")}
			if !used[k] {
				used[k] = true
				return warmOp{Class: classPartial, Key: k}
			}
		}
	}

	var plan warmPlan
	for range warmup {
		op := partial()
		lru.touch(op.Key)
		plan.Warmup = append(plan.Warmup, op)
	}
	evictionsBefore := lru.evictions

	var classes []string
	for _, c := range warmClasses {
		for range int(math.Round(c.share * float64(n))) {
			classes = append(classes, c.name)
		}
	}
	r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	nextFull := 0
	for _, class := range classes {
		var op warmOp
		switch class {
		case classPartial:
			op = partial()
			plan.RunsStarted++
		case classFull:
			op = warmOp{Class: classFull, Key: fulls[nextFull%len(fulls)]}
			nextFull++
			plan.RunsStarted++
		case classRepeat, classArtefact:
			k := lru.keys[r.IntN(min(12, len(lru.keys)))]
			op = warmOp{Class: class, Key: k}
			if class == classArtefact {
				secs := k.sections()
				if secs == nil {
					secs = sections
				}
				op.Get = secs[r.IntN(len(secs))]
			}
			plan.CacheHits++
		case classStats:
			op = warmOp{Class: classStats}
		}
		if class != classStats {
			lru.touch(op.Key)
		}
		plan.Ops = append(plan.Ops, op)
	}
	plan.Evictions = lru.evictions - evictionsBefore
	return plan
}

// --- serve-churn -----------------------------------------------------------

// Churn geometry: more world seeds than the service's two-world cache
// holds, each visited with annotationVariants sizes in a row.
const (
	churnSeeds         = 3
	annotationVariants = 3
	churnCycleOps      = churnSeeds * annotationVariants
)

// churnCell is one sweep cell sent as POST /v1/study.
type churnCell struct {
	Seed       uint64
	Annotation int
	Workers    int
	// WorldMiss marks the first visit of a seed in a cycle: the world
	// was evicted two groups ago, so the service regenerates it.
	WorldMiss bool
}

// cellID is a cell's semantic identity: Workers is an execution knob
// that never changes a result.
func (c churnCell) cellID() [2]uint64 { return [2]uint64{c.Seed, uint64(c.Annotation)} }

// churnPlan is one warm-up cycle followed by cycles timed cycles.
// Seeds recur in a fixed cyclic order, so with a two-world cache every
// first visit of a seed misses and the next two hit. Each cycle uses
// its own worker count, so no cell is ever a result-cache hit, and the
// 33-entry memo holds barely one seed's nodes, so every cell
// recomputes: 11 nodes on a world miss, 10 on a hit (the selection is
// keyed by the world alone).
type churnPlan struct {
	Warmup []churnCell
	Ops    []churnCell
	// Expected /v1/stats deltas over the timed cycles.
	RunsStarted, Evictions, MemoComputes, WorldGenerations int64
}

// churnWorlds are the world seeds the churn cycles over: the repo's
// golden seed, its default seed and one more. They are fixed rather
// than drawn because a run visits only three worlds, and crawl work
// varies 2.5× from world to world at this scale — drawn worlds would
// make the medians measure the draw, not the caches. The workload seed
// draws everything else: annotation sizes, visit order, worker counts.
var churnWorlds = [churnSeeds]uint64{77, 2019, 1000}

func churnOps(seed uint64, cycles int) churnPlan {
	r := newRand(seed, 3)
	seeds := churnWorlds[:]
	annotations := make([][]int, churnSeeds)
	for i := range annotations {
		pool := []int{300, 325, 350, 375, 400, 425, 450, 475, 500}
		r.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		annotations[i] = pool[:annotationVariants]
	}
	cycle := func(c int) []churnCell {
		var out []churnCell
		for i, s := range seeds {
			order := slices.Clone(annotations[i])
			r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			for v, ann := range order {
				out = append(out, churnCell{Seed: s, Annotation: ann, Workers: 2 + c%3, WorldMiss: v == 0})
			}
		}
		return out
	}
	plan := churnPlan{Warmup: cycle(0)}
	for c := 1; c <= cycles; c++ {
		plan.Ops = append(plan.Ops, cycle(c)...)
	}
	n := int64(len(plan.Ops))
	plan.RunsStarted = n
	// The warm-up cycle leaves 9 runs in the 16-run result LRU; every
	// timed run beyond the 7 that fill it evicts one.
	plan.Evictions = max(0, n-(serviceCacheSize-churnCycleOps))
	nodes := int64(0)
	for _, c := range plan.Ops {
		nodes += 10
		if c.WorldMiss {
			nodes++
			plan.WorldGenerations++
		}
	}
	plan.MemoComputes = nodes
	return plan
}
