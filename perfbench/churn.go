package main

// serve-churn: a remote sweep client whose cells outrun the service's
// caches — the write/evict path of the memo store and the world cache.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/studysvc"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/tracex"
)

const (
	churnOpsPerSecond = 4.0
	churnScale        = 0.02
)

type churnEnv struct {
	srv     *server
	backend studysvc.Backend
	plan    churnPlan
	// first holds each cell's summary from its first computation, in
	// the warm-up cycle; every timed cell is a recomputation after
	// eviction and must match it.
	first map[[2]uint64]string
	bad   []string
	// tracer is the client side of a traced pass: each cell opens a
	// span whose trace id the request carries into the service.
	tracer *tracex.Tracer
}

func (c churnCell) cell() sweep.Cell {
	return sweep.Cell{Seed: c.Seed, Scale: churnScale, Annotation: c.Annotation, Workers: c.Workers}
}

// summaryJSON is the comparable form of a run's summary (plain numbers:
// marshalling cannot fail).
func summaryJSON(s sweep.Summary) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func setupChurn(ctx context.Context, seed uint64, n int, traced bool) (env, error) {
	plan := churnOps(seed, n/churnCycleOps)
	// An in-process study of the first cell anchors the recomputation
	// check outside the service. It runs before the service starts, so
	// its heap never adds to the service's.
	ref := plan.Warmup[0]
	res, err := core.NewStudy(core.Options{
		Synth:          synth.Config{Seed: ref.Seed, Scale: churnScale},
		AnnotationSize: ref.Annotation,
	}).Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %v", err)
	}
	refSummary := summaryJSON(sweep.Summarize(res))
	res = nil
	runtime.GC()

	srv, err := startServer(traced)
	if err != nil {
		return nil, err
	}
	e := &churnEnv{
		srv: srv, backend: studysvc.Backend{Client: srv.client},
		plan: plan, first: map[[2]uint64]string{},
	}
	if traced {
		e.tracer = tracex.New(tracex.Config{IDs: tracex.NewSeqIDs(2), MaxTraces: 4})
	}
	for _, c := range plan.Warmup {
		cr, err := e.backend.RunCell(ctx, c.cell())
		if err != nil {
			srv.close()
			return nil, err
		}
		e.first[c.cellID()] = summaryJSON(cr.Summary)
		srv.idle()
	}
	if e.first[ref.cellID()] != refSummary {
		e.bad = append(e.bad, fmt.Sprintf("cell %+v: service summary differs from the in-process study", ref))
	}
	return e, nil
}

func (e *churnEnv) close() { e.srv.close() }

// runCell sends one cell as ewsweep -remote does, traced or not, and
// returns the trace id the service recorded it under ("" untraced).
func (e *churnEnv) runCell(ctx context.Context, c churnCell) (sweep.CellResult, string, error) {
	if e.tracer == nil {
		cr, err := e.backend.RunCell(ctx, c.cell())
		return cr, "", err
	}
	ctx, span := tracex.StartSpan(tracex.NewContext(ctx, e.tracer), "churn cell")
	cr, err := e.backend.RunCell(ctx, c.cell())
	span.End()
	return cr, span.Context().Trace.String(), err
}

func (e *churnEnv) run(ctx context.Context, traced bool) pass {
	p := pass{counts: map[string]int64{}}
	for _, msg := range e.bad {
		p.problem("%s", msg)
	}
	before := e.srv.idle()
	acc := newLayerAcc()
	var generations int64
	for i, c := range e.plan.Ops {
		r0, c0, t0 := readRuntime(), cpuTime(), time.Now()
		cr, traceID, err := e.runCell(ctx, c)
		d := time.Since(t0)
		// The run's bookkeeping after its reply (log, node stats, cache
		// insert, result eviction) is this op's CPU, though not its
		// latency.
		e.srv.idle()
		c1, r1 := cpuTime(), readRuntime()
		switch {
		case err != nil:
			p.fail("op %d: %v", i, err)
			continue
		case cr.Cached:
			p.fail("op %d: cell %+v was a result-cache hit, the op sequence predicts a miss", i, c)
			continue
		case summaryJSON(cr.Summary) != e.first[c.cellID()]:
			p.fail("op %d: cell %+v recomputed after eviction differs from its first computation", i, c)
			continue
		}
		p.lat = append(p.lat, d)
		p.cpu += c1 - c0
		class := "world_hit"
		if c.WorldMiss {
			class = "world_miss"
		}
		p.counts["class."+class]++
		if !traced {
			continue
		}
		acc.add("http."+class+".p50_ms", ms(d))
		acc.op(r0, r1)
		gen, synthMS, nodes := readRunSpans(e.srv.traceSpans(traceID))
		if gen {
			generations++
			acc.add("synth.busy_ms", synthMS)
		}
		for name, v := range nodes {
			acc.add("node."+name+".busy_ms", v)
		}
	}
	after := e.srv.idle()
	p.oneConnection(e.srv)
	deltas := serviceDeltas(before, after)
	for k, v := range deltas {
		p.counts[k] = v
	}
	p.expectCounts(deltas, map[string]int64{
		"svc.runs_started": e.plan.RunsStarted, "svc.cache_hits": 0, "svc.coalesced": 0,
		"svc.evictions": e.plan.Evictions, "svc.runs_failed": 0, "memo.computes": e.plan.MemoComputes,
	})
	if traced {
		if generations != e.plan.WorldGenerations {
			p.problem("the trace shows %d world generations, the op sequence predicts %d", generations, e.plan.WorldGenerations)
		}
		deltas["world.generations"] = generations
		p.counts["world.generations"] = generations
		p.layers = acc.layers()
		p.layerCounts(deltas)
	}
	return p
}

// readRunSpans reads one study request's trace: whether its "synth"
// span generated a world (it then has per-generator children) and how
// long that took, and each node that computed rather than hit the memo
// with its span time in ms.
func readRunSpans(spans []tracex.SpanRecord) (generated bool, synthMS float64, nodes map[string]float64) {
	nodes = map[string]float64{}
	synthID := ""
	for _, sp := range spans {
		switch {
		case sp.Name == "synth":
			synthID, synthMS = sp.SpanID, float64(sp.DurUS)/1000
		case strings.HasPrefix(sp.Name, "node ") && sp.Attrs["outcome"] == "compute":
			nodes[strings.TrimPrefix(sp.Name, "node ")] = float64(sp.DurUS) / 1000
		}
	}
	for _, sp := range spans {
		if synthID != "" && sp.Parent == synthID && strings.HasPrefix(sp.Name, "synth ") {
			generated = true
		}
	}
	return generated, synthMS, nodes
}
