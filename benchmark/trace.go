package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/mqo"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/sqlparse"
)

// Stage names of the replay, in call order. Each is one layer's public
// entry point, called directly against the live session state.
var stages = []string{"sqlparse.parse", "logical.bind", "core.identify", "opt.optimize", "exec.run"}

// tracedRequest is one request of the traced pass: microseconds per
// replay stage, for the real POST, and what the service's own clock
// said, plus the two plan facts only the replay sees.
type tracedRequest struct {
	stageUs    map[string]float64
	postUs     float64
	workerUs   float64
	memoGroups int
	cacheScans int
}

// replayUs is the sum of the replay stages.
func (t tracedRequest) replayUs() float64 {
	sum := 0.0
	for _, s := range stages {
		sum += t.stageUs[s]
	}
	return sum
}

// tracedPass sends the schedule with one client for d. Each request
// gets a root span <workload>/<seq> with two children: replay, whose
// own children time direct calls into each layer, and http.post
// around the real request. The replay runs first, so it plans and
// executes against the cache state the real request is about to see;
// it persists nothing, pins nothing and publishes to no registry.
func (h *harness) tracedPass(tr *obs.Tracer, d time.Duration, firstStep int) ([]tracedRequest, []sample) {
	var reqs []tracedRequest
	var samples []sample
	deadline := time.Now().Add(d)
	one := func(it item, step int) {
		id := fmt.Sprintf("%s/%d", h.in.spec.name, len(reqs))
		root := tr.Start(obs.Span{}, "bench", "request", id)
		t := h.replay(tr, root, id, it)
		sp := tr.Start(root, "serve", "http.post", id)
		s := h.post("bench-trace", it, step)
		sp.End()
		root.End()
		t.postUs = float64(s.latency) / float64(time.Microsecond)
		if ev := h.srv.EventLog().Recent("", 1); len(ev) == 1 {
			t.workerUs = float64(ev[0].LatencyUs)
		}
		reqs = append(reqs, t)
		samples = append(samples, s)
	}
	if h.in.step != nil {
		h.eachStep(deadline, firstStep, func(lanes [2]item, step int) {
			for _, it := range lanes {
				one(it, step)
			}
		})
		return reqs, samples
	}
	// Client 8 is no measured client's id: its literals are new.
	for i := 0; time.Now().Before(deadline); i++ {
		one(h.in.next(8, i), i)
	}
	return reqs, samples
}

// replay walks one script through the layers the service would call,
// one leaf span per stage. A stage that fails leaves the rest at zero;
// the real request then reports the error.
func (h *harness) replay(tr *obs.Tracer, root obs.Span, id string, it item) tracedRequest {
	t := tracedRequest{stageUs: map[string]float64{}}
	rp := tr.Start(root, "bench", "replay", id)
	defer rp.End()
	var err error
	stage := func(name string, fn func()) bool {
		if err != nil {
			return false
		}
		cat, op, _ := strings.Cut(name, ".")
		sp := tr.Start(rp, cat, op, id)
		t0 := time.Now()
		fn()
		t.stageUs[name] = float64(time.Since(t0)) / float64(time.Microsecond)
		sp.End()
		return err == nil
	}
	var script *sqlparse.Script
	var m *memo.Memo
	var res *opt.Result
	stage(stages[0], func() { script, err = sqlparse.Parse(it.script) })
	stage(stages[1], func() { m, err = logical.Build(script, h.in.cat) })
	if stage(stages[2], func() { core.Fingerprints(m); core.CanonicalSignatures(m) }) {
		t.memoGroups = m.NumGroups()
	}
	sess := h.srv.Session()
	if stage(stages[3], func() {
		o := sess.Options()
		o.Cache = sess.Cache()
		res, err = opt.Optimize(m, o)
	}) {
		t.cacheScans = len(plan.FindAll(res.Plan, relop.KindCacheScan))
	}
	stage(stages[4], func() {
		var cl *exec.Cluster
		if cl, err = exec.NewCluster(8, h.in.fs); err == nil {
			_, err = cl.RunContext(context.Background(), res.Plan)
		}
	})
	return t
}

// poolPlanning measures what is planned once per pool, not once per
// request: the Fig. 7 cost ratio (CSE plan against the conventional
// plan, no cache, exact) and one workload-level MQO selection over
// the pool as a batch. scoped cannot switch MQO on, so the mqo.*
// numbers sit beside the request path, not on it.
func (h *harness) poolPlanning() (map[string]float64, error) {
	out := map[string]float64{}
	var cse, conventional float64
	for _, it := range h.in.pool {
		for _, on := range []bool{true, false} {
			m, err := logical.BuildSource(it.script, h.in.cat)
			if err != nil {
				return nil, err
			}
			o := h.srv.Session().Options()
			o.EnableCSE = on
			res, err := opt.Optimize(m, o)
			if err != nil {
				return nil, err
			}
			if on {
				cse += res.Cost
			} else {
				conventional += res.Cost
			}
		}
	}
	if conventional > 0 {
		out["opt.est_cost_ratio"] = cse / conventional
	}
	batch := h.in.mqoPool
	if batch == nil {
		batch = h.in.pool
	}
	scripts := make([]mqo.Script, len(batch))
	for i, it := range batch {
		scripts[i] = mqo.Script{Name: fmt.Sprintf("q%d", i), Src: it.script}
	}
	t0 := time.Now()
	dag, err := mqo.BuildDAG(scripts, h.in.cat)
	if err != nil {
		return nil, err
	}
	if len(dag.Candidates) > 0 {
		sel, err := mqo.Select(mqo.NewEvaluator(dag, h.srv.Session().Options()), mqo.Config{})
		if err != nil {
			return nil, err
		}
		out["mqo.evals"] = float64(sel.Evals)
		out["mqo.chosen"] = float64(len(sel.Keys))
		if sel.Base > 0 {
			out["mqo.est_saving_share"] = (sel.Base - sel.Total) / sel.Base
		}
	}
	out["mqo.plan_us"] = float64(time.Since(t0)) / float64(time.Microsecond)
	return out, nil
}
