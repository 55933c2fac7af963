package main

// serve-warm: researchers reading tables from a running service whose
// caches already hold their worlds — the read path.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/artefact"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/studysvc"
	"repro/internal/synth"
)

const (
	warmOpsPerSecond = 2600
	warmScale        = 0.05
	// warmWarmup partial requests fill the result LRU before timing, so
	// the first timed repeats have keys to repeat.
	warmWarmup = 8
)

// warmWorlds are the two worlds the service holds: the repo's golden
// seed and its default seed. They are fixed for the reason churnWorlds
// are: a run reads only two worlds, and report sizes — the render and
// encode work of every request, and the cache residency behind
// peak_rss_mb — vary from world to world, so drawn worlds would make
// the medians measure the draw. The workload seed draws the requests.
var warmWorlds = [2]uint64{77, 2019}

type warmEnv struct {
	srv   *server
	plan  warmPlan
	full  [2]string            // the setup's full reports
	secs  [2]map[string]string // the setup's sections, by name
	order []string             // section names in report order
	bad   []string

	// direct answers each request in-process on a warm memo (traced
	// passes only, after their timed ops).
	direct      *artefact.Store
	directWorld [2]*synth.World
}

func (e *warmEnv) request(k warmKey) studysvc.Request {
	return studysvc.Request{Seed: warmWorlds[k.World], Scale: warmScale, Workers: k.Workers, Artefacts: k.sections()}
}

func (e *warmEnv) options(k warmKey) core.Options {
	return core.Options{Synth: synth.Config{Seed: warmWorlds[k.World], Scale: warmScale, Workers: k.Workers}, Workers: k.Workers}
}

// expected is the report a request for k must return, assembled from
// the setup's full-report sections.
func (e *warmEnv) expected(k warmKey) string {
	if k.Sections == "" {
		return e.full[k.World]
	}
	want := map[string]bool{}
	for _, s := range k.sections() {
		want[s] = true
	}
	var parts []string
	for _, name := range e.order {
		if want[name] {
			parts = append(parts, e.secs[k.World][name])
		}
	}
	return joinSections(parts)
}

// joinSections joins rendered sections the way the report does.
func joinSections(parts []string) string { return strings.Join(parts, "\n") }

func setupWarm(ctx context.Context, seed uint64, n int, traced bool) (env, error) {
	srv, err := startServer(traced)
	if err != nil {
		return nil, err
	}
	e := &warmEnv{srv: srv}
	if err := e.init(ctx, seed, n, traced); err != nil {
		srv.close()
		return nil, err
	}
	return e, nil
}

func (e *warmEnv) init(ctx context.Context, seed uint64, n int, traced bool) error {
	for _, sec := range report.Sections() {
		e.order = append(e.order, sec.Name)
	}
	var setupKeys []warmKey
	for w := range 2 {
		k := warmKey{World: w}
		env, err := e.srv.study(ctx, e.request(k))
		if err != nil {
			return err
		}
		e.full[w], e.secs[w] = env.Report, map[string]string{}
		var parts []string
		for _, name := range e.order {
			a, err := e.srv.client.Artefact(ctx, env.ID, name)
			if err != nil {
				return err
			}
			e.secs[w][name] = a.Report
			parts = append(parts, a.Report)
		}
		if joinSections(parts) != env.Report {
			e.bad = append(e.bad, fmt.Sprintf("world %d: the sections read back do not join to the full report", w))
		}
		setupKeys = append(setupKeys, k)
	}
	e.plan = warmOps(seed, n, warmWarmup, e.order, setupKeys)
	for _, op := range e.plan.Warmup {
		if err := e.check(op, e.issue(ctx, op)); err != nil {
			e.bad = append(e.bad, "warm-up: "+err.Error())
		}
		e.srv.idle()
	}
	e.srv.idle()
	return nil
}

func (e *warmEnv) close() { e.srv.close() }

// warmDirect builds the in-process twin of the service's warm state:
// both worlds and a memo holding every node of them.
func (e *warmEnv) warmDirect(ctx context.Context) error {
	e.direct = artefact.NewStore(0)
	for w := range 2 {
		opts := e.options(warmKey{World: w})
		e.directWorld[w] = synth.GenerateContext(ctx, opts.Synth)
		st := core.NewStudyWithWorld(opts, e.directWorld[w])
		st.UseMemo(e.direct)
		_, err := st.Compute(ctx)
		st.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// reply is what one op got back.
type reply struct {
	report string
	cached bool
	err    error
}

// issue performs one op's requests.
func (e *warmEnv) issue(ctx context.Context, op warmOp) reply {
	switch op.Class {
	case classStats:
		_, err := e.srv.client.Stats(ctx)
		return reply{err: err}
	case classArtefact:
		// The id comes from this op's own POST: older ids may have left
		// the 16-run result LRU.
		env, err := e.srv.study(ctx, e.request(op.Key))
		if err != nil {
			return reply{err: err}
		}
		a, err := e.srv.client.Artefact(ctx, env.ID, op.Get)
		if err != nil {
			return reply{err: err}
		}
		return reply{report: a.Report, cached: env.Cached}
	default:
		env, err := e.srv.study(ctx, e.request(op.Key))
		if err != nil {
			return reply{err: err}
		}
		return reply{report: env.Report, cached: env.Cached}
	}
}

// want is the report an op must return ("" for stats).
func (e *warmEnv) want(op warmOp) string {
	switch op.Class {
	case classStats:
		return ""
	case classArtefact:
		return e.secs[op.Key.World][op.Get]
	}
	return e.expected(op.Key)
}

// check compares a reply with the setup's report and with the cache
// outcome the op sequence predicts.
func (e *warmEnv) check(op warmOp, r reply) error {
	if r.err != nil {
		return r.err
	}
	if r.report != e.want(op) {
		return fmt.Errorf("%s %+v: report differs from the setup's full report", op.Class, op.Key)
	}
	hit := op.Class == classRepeat || op.Class == classArtefact
	if op.Class != classStats && r.cached != hit {
		return fmt.Errorf("%s %+v: cached=%v, the op sequence predicts %v", op.Class, op.Key, r.cached, hit)
	}
	return nil
}

// answerDirect answers op in-process: Study.Compute on the warm memo
// plus report.Render — the service's own work without studysvc and
// HTTP around it. It returns the render time.
func (e *warmEnv) answerDirect(ctx context.Context, op warmOp) (string, time.Duration, error) {
	if op.Class == classStats {
		e.srv.svc.Stats()
		return "", 0, nil
	}
	names := op.Key.sections()
	if op.Class == classArtefact {
		names = []string{op.Get}
	}
	_, arts, err := report.Resolve(names...)
	if err != nil {
		return "", 0, err
	}
	st := core.NewStudyWithWorld(e.options(op.Key), e.directWorld[op.Key.World])
	st.UseMemo(e.direct)
	defer st.Close()
	res, err := st.Compute(ctx, arts...)
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	text, err := report.Render(res, names...)
	return text, time.Since(t0), err
}

func (e *warmEnv) run(ctx context.Context, traced bool) pass {
	p := pass{counts: map[string]int64{}}
	for _, msg := range e.bad {
		p.problem("%s", msg)
	}
	before := e.srv.idle()
	acc := newLayerAcc()
	var done []int // the ops that passed their checks, for the direct loop
	for i, op := range e.plan.Ops {
		r0, c0, t0 := readRuntime(), cpuTime(), time.Now()
		r := e.issue(ctx, op)
		d := time.Since(t0)
		if op.Class == classPartial || op.Class == classFull {
			// The run files itself in the result cache after its reply;
			// that bookkeeping is this op's CPU, though not its latency.
			e.srv.idle()
		}
		c1, r1 := cpuTime(), readRuntime()
		if err := e.check(op, r); err != nil {
			p.fail("op %d: %v", i, err)
			continue
		}
		p.lat = append(p.lat, d)
		p.cpu += c1 - c0
		p.counts["class."+op.Class]++
		done = append(done, i)
		if traced {
			acc.op(r0, r1)
			acc.add("http."+op.Class+".p50_ms", ms(d))
		}
	}
	after := e.srv.idle()
	p.oneConnection(e.srv)
	deltas := serviceDeltas(before, after)
	for k, v := range deltas {
		p.counts[k] = v
	}
	p.expectCounts(deltas, map[string]int64{
		"svc.runs_started": e.plan.RunsStarted, "svc.cache_hits": e.plan.CacheHits,
		"svc.evictions": e.plan.Evictions, "svc.coalesced": 0, "svc.runs_failed": 0,
		"memo.computes": 0, "memo.evictions": 0,
	})
	if !traced {
		return p
	}
	// The in-process answers run after the timed ops, so the traced
	// pass differs from the plain one by the tracer alone.
	if err := e.warmDirect(ctx); err != nil {
		p.problem("in-process set-up: %v", err)
		return p
	}
	for _, i := range done {
		op := e.plan.Ops[i]
		t0 := time.Now()
		text, render, err := e.answerDirect(ctx, op)
		direct := time.Since(t0)
		if err == nil && text != e.want(op) {
			err = fmt.Errorf("%s %+v: the in-process answer differs from the service's", op.Class, op.Key)
		}
		if err != nil {
			p.problem("op %d in-process: %v", i, err)
			continue
		}
		acc.add("direct."+op.Class+".p50_ms", ms(direct))
		if op.Class != classStats {
			acc.add("report.render_ms", ms(render))
		}
	}
	p.layers = acc.layers()
	p.layerCounts(deltas)
	return p
}
