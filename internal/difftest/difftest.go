// Package difftest is the differential harness behind the promise that
// exploiting common subexpressions changes a plan's cost and never its
// result. It holds one corpus (corpus.go), the axes a script is planned
// and executed along, and the invariants every cell of the resulting
// matrix keeps:
//
//   - outputs equal exec.Reference's;
//   - tables (column names and types, values and row order),
//     the shared meters (coreMetrics) and the span tree equal the row
//     oracle's exactly;
//   - the plan, its optimizer span tree, the full Metrics and the
//     executor span tree are identical at workers 1 and 8;
//   - no lint error, opt.ValidatePlan clean, phase-2 cost ≤ phase-1;
//   - a 512-byte budget spills and peaks under the budget;
//   - a warm or served plan reads the session's artifacts and meters
//     the reads (an evaluation script's cold run must leave some);
//   - the session is Quiescent after its runs.
//
// Each (script, plan options) pair is compiled and optimized once,
// through share.Compile and share.Optimize, and its plan then runs
// across the execution axes. Only tests import this package: the row
// oracle is switched on by a test-only method of package exec, which
// exec's tests hand to Run.
package difftest

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/lint"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/share"
)

// Run checks the whole matrix: one subtest per corpus entry and one
// per cell below it, named by the cell's axis values. oracle switches
// a cluster to the row operators.
func Run(t *testing.T, oracle func(*exec.Cluster)) {
	for _, e := range corpus(testing.Short()) {
		t.Run(e.name, func(t *testing.T) {
			// A batch entry runs before the rest, alone: its clients
			// overlap only when the machine's cores are free.
			if e.batch == nil {
				t.Parallel()
			}
			r := &runner{entry: e, oracle: oracle, wants: map[string]map[string]*exec.Table{},
				plans: map[cell]*planned{}, runs: map[runKey]*outcome{}, streams: map[cell]string{}}
			for _, c := range e.cells {
				t.Run(c.String(), func(t *testing.T) { r.check(t, c) })
			}
		})
	}
}

// planned is one optimized plan, its rendering and its optimizer span
// tree (empty for a served plan, which no search produced).
type planned struct {
	root   *plan.Node
	format string
	cost   float64
	trace  string
}

// outcome is one execution: outputs, meters and executor span tree.
type outcome struct {
	out   map[string]*exec.Table
	m     exec.Metrics
	trace string
}

// runKey identifies one execution of a plan.
type runKey struct {
	p       *planned
	oracle  bool
	workers int
	budget  int64
}

// runner holds one entry's reference results (by script), plans (by
// cell, budget 0), runs and clients cells' event streams; each is
// computed on first use, so a replayed cell builds only what it needs.
type runner struct {
	*entry
	w       *datagen.Workload
	oracle  func(*exec.Cluster)
	wants   map[string]map[string]*exec.Table
	plans   map[cell]*planned
	runs    map[runKey]*outcome
	streams map[cell]string
	warmed  bool
	cached  int // cache entries the warming runs left
}

// reference returns src's outputs under exec.Reference over the
// entry's files, linting and binding src on first use.
func (r *runner) reference(t *testing.T, src string) map[string]*exec.Table {
	if want := r.wants[src]; want != nil {
		return want
	}
	if rep := lint.AnalyzeScriptSource(src, r.name); rep.Errors() > 0 {
		r.fail(t, nil, "script lint: %v", rep.Diags)
	}
	mRef, err := logical.BuildSource(src, r.w.Cat)
	if err != nil {
		r.fail(t, nil, "bind: %v", err)
	}
	if r.wants[src], err = exec.Reference(mRef, r.w.FS); err != nil {
		r.fail(t, nil, "reference: %v", err)
	}
	return r.wants[src]
}

// check holds one cell to every invariant.
func (r *runner) check(t *testing.T, c cell) {
	if r.w == nil {
		r.w = r.load()
	}
	if c.clients > 0 {
		r.clients(t, c)
		return
	}
	p := r.plan(t, c)
	base := p
	if c.workers != 1 {
		one := c
		one.workers = 1
		base = r.plan(t, one)
		if p.format != base.format || p.cost != base.cost {
			r.fail(t, p.root, "plan differs from workers=1's (cost %v, want %v): %s", p.cost, base.cost, lineDiff(p.format, base.format))
		}
		if p.trace != base.trace {
			r.fail(t, p.root, "optimizer span tree differs from workers=1's: %s", lineDiff(p.trace, base.trace))
		}
	}
	got := r.exec(t, p, false, c.workers, c.budget)
	if d := diffRun(got, r.exec(t, base, true, 1, 0), true); d != "" {
		r.fail(t, p.root, "kernels differ from the row oracle: %s", d)
	}
	if c.workers != 1 {
		if d := diffRun(got, r.exec(t, base, false, 1, c.budget), false); d != "" {
			r.fail(t, p.root, "differs from workers=1: %s", d)
		}
	}
	m := got.m
	if c.state == cold && m.BatchesProcessed == 0 {
		r.fail(t, p.root, "the kernels processed no batches")
	}
	if c.budget > 0 && (m.Spills == 0 || m.PeakResidentBytes > c.budget) {
		r.fail(t, p.root, "budget %d: %d spills, peak resident %d bytes", c.budget, m.Spills, m.PeakResidentBytes)
	}
	if c.state != cold {
		scans := len(plan.FindAll(p.root, relop.KindCacheScan))
		if scans == 0 && r.cached > 0 {
			r.fail(t, p.root, "warm plan reads none of the %d cached artifacts", r.cached)
		}
		if scans > 0 && (m.CacheReads == 0 || m.CacheBytesRead == 0 && r.shares) { // a random workload's artifact may be empty
			r.fail(t, p.root, "warm plan has %d CacheScans but metered %d reads, %d bytes", scans, m.CacheReads, m.CacheBytesRead)
		}
	}
}

// plan returns the cell's plan, searching it cold on first use; warm
// and served plans come from warmUp.
func (r *runner) plan(t *testing.T, c cell) *planned {
	c = c.planKey()
	if c.state != cold && !r.warmed {
		r.warmUp(t)
	}
	if r.plans[c] == nil {
		r.plans[c] = r.search(t, c, nil)
	}
	return r.plans[c]
}

// search compiles and optimizes the script for c, traced, against
// cache (nil for a cold search), and checks the plan statically. The
// paper configuration plans through bench, as the experiments do.
func (r *runner) search(t *testing.T, c cell, cache opt.ResultCache) *planned {
	tr := obs.NewTracer()
	var res *opt.Result
	var err error
	if c.rules == "paper" {
		cfg := bench.DefaultConfig()
		cfg.OptWorkers, cfg.Tracer = c.workers, tr
		res, err = bench.RunOne(r.w, c.cse, cfg)
	} else {
		o := opt.DefaultOptions()
		o.EnableCSE, o.Rules, o.Workers, o.Lint = c.cse, profiles[c.rules](), c.workers, true
		o.Cluster.Machines, o.Rules.Machines = r.machines, r.machines
		o.Cache, o.Tracer = cache, tr
		var comp *share.Compiled
		if comp, err = share.Compile(r.w.Script, r.w.Cat, c.cse); err == nil {
			res, err = share.Optimize(comp, o)
		}
	}
	if err != nil {
		r.fail(t, nil, "optimize: %v", err)
	}
	if res.Cost > res.Phase1Cost*(1+1e-9) {
		r.fail(t, res.Plan, "phase-2 cost %v exceeds phase-1 %v", res.Cost, res.Phase1Cost)
	}
	r.static(t, res.Plan, res.Lint)
	return &planned{res.Plan, plan.Format(res.Plan), res.Cost, tr.TreeString()}
}

// static fails on a plan lint error or a structural violation.
func (r *runner) static(t *testing.T, p *plan.Node, diags []lint.Diagnostic) {
	for _, d := range diags {
		if d.Severity == lint.Error {
			r.fail(t, p, "plan lint: %s", d)
		}
	}
	if err := opt.ValidatePlan(p); err != nil {
		r.fail(t, p, "static validation: %v", err)
	}
}

// warmUp runs the warming script (the entry's own unless warmBy names
// another) cold through a session under the default profile, which
// admits its artifacts; searches every warm cell's plan against that
// cache; then runs the entry's script until the session's plan store
// serves it, which is every served cell's plan. The sequence is fixed,
// so a replayed cell sees the state the whole matrix saw.
func (r *runner) warmUp(t *testing.T) {
	o := opt.DefaultOptions()
	o.Cluster.Machines, o.Rules.Machines = r.machines, r.machines
	sess, err := share.NewSession(share.Config{Catalog: r.w.Cat, FS: r.w.FS, Machines: r.machines, Opt: &o})
	if err != nil {
		r.fail(t, nil, "session: %v", err)
	}
	if _, err := sess.Run(cmp.Or(r.warmBy, r.w.Script)); err != nil {
		r.fail(t, nil, "warming session run: %v", err)
	}
	if r.cached = sess.CacheStats().Entries; r.cached == 0 && r.shares {
		r.fail(t, nil, "the warming run admitted no artifact")
	}
	for _, c := range r.cells {
		if c.state == warm && r.plans[c.planKey()] == nil {
			r.plans[c.planKey()] = r.search(t, c, sess.Cache())
		}
	}
	for run := 2; ; run++ {
		rep, err := sess.Run(r.w.Script)
		if err != nil {
			r.fail(t, nil, "session run %d: %v", run, err)
		}
		if d := diff(rep.Outputs, r.reference(t, r.w.Script), false); d != "" {
			r.fail(t, rep.Plan, "session run %d differs from exec.Reference: %s", run, d)
		}
		if rep.PlanCached {
			r.static(t, rep.Plan, rep.Lint)
			for _, c := range r.cells {
				if c.state == served {
					r.plans[c.planKey()] = &planned{rep.Plan, plan.Format(rep.Plan), rep.Cost, ""}
				}
			}
			break
		}
		if run == 4 {
			r.fail(t, rep.Plan, "the plan store served no rerun")
		}
	}
	if err := sess.Quiescent(); err != nil {
		r.fail(t, nil, "after the session's runs: %v", err)
	}
	r.warmed = true
}

// exec runs p on a fresh traced cluster over the entry's files, on the
// row oracle when oracle is set, once per (plan, engine, width,
// budget).
func (r *runner) exec(t *testing.T, p *planned, oracle bool, workers int, budget int64) *outcome {
	k := runKey{p, oracle, workers, budget}
	if o := r.runs[k]; o != nil {
		return o
	}
	cl, err := exec.NewCluster(r.machines, r.w.FS)
	if err != nil {
		r.fail(t, nil, "cluster: %v", err)
	}
	if oracle {
		r.oracle(cl)
	}
	cl.Workers, cl.MemBudget, cl.Trace = workers, budget, obs.NewTracer()
	out, err := cl.Run(p.root)
	if err != nil {
		r.fail(t, p.root, "execute (oracle=%v workers=%d budget=%d): %v", oracle, workers, budget, err)
	}
	// The oracle checks against exec.Reference once per plan; every
	// cell then equals both, since it must equal the oracle exactly.
	if oracle {
		if d := diff(out, r.reference(t, r.w.Script), false); d != "" {
			r.fail(t, p.root, "the row oracle differs from exec.Reference: %s", d)
		}
	}
	r.runs[k] = &outcome{out, cl.Metrics(), cl.Trace.TreeString()}
	return r.runs[k]
}

// diff reports the first path, in path order, where two runs' outputs
// differ ("" when they agree). Row multisets under the same column
// names compare through exec.DiffOutputs and Table.Diff; exact runs
// must also agree on column types, row order and value kinds (int 2
// and float 2.0 are distinct).
func diff(got, want map[string]*exec.Table, exact bool) string {
	order := ""
	if exact {
		if order = orderDiff(got, want); order == "" {
			return ""
		}
	}
	if p, differ := exec.DiffOutputs(got, want); differ {
		g, w := got[p], want[p]
		if g == nil || w == nil {
			return fmt.Sprintf("%q: present in one run only", p)
		}
		return fmt.Sprintf("%q: %s", p, g.Diff(w))
	}
	return order
}

// orderDiff is diff's exact part: the first path whose column types or
// row order differ. A run that lacks a path or a row is for
// exec.DiffOutputs to report.
func orderDiff(got, want map[string]*exec.Table) string {
	paths := make([]string, 0, len(got))
	for p := range got {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		g, w := got[p], want[p]
		switch {
		case w == nil || len(g.Rows) != len(w.Rows):
			return "differ"
		case !slices.Equal(g.Schema, w.Schema):
			return fmt.Sprintf("%q: columns %v, want %v", p, g.Schema, w.Schema)
		}
		for i, row := range g.Rows {
			if !slices.Equal(row, w.Rows[i]) {
				return fmt.Sprintf("%q row %d: got %#v, want %#v", p, i, row, w.Rows[i])
			}
		}
	}
	if len(got) != len(want) {
		return "differ"
	}
	return ""
}

// diffRun is diff (exact) extended to a run's meters and span tree;
// core compares coreMetrics, the totals every engine must agree on.
func diffRun(got, want *outcome, core bool) string {
	if d := diff(got.out, want.out, true); d != "" {
		return d
	}
	gm, wm := reflect.ValueOf(got.m), reflect.ValueOf(want.m)
	if core {
		gm, wm = reflect.ValueOf(coreMetrics(got.m)), reflect.ValueOf(coreMetrics(want.m))
	}
	for i := range gm.NumField() {
		if !gm.Field(i).Equal(wm.Field(i)) {
			return fmt.Sprintf("Metrics.%s = %v, want %v", gm.Type().Field(i).Name, gm.Field(i), wm.Field(i))
		}
	}
	if got.trace != want.trace {
		return "span tree " + lineDiff(got.trace, want.trace)
	}
	return ""
}

// coreMetrics is the view of a run's meters the row oracle shares with
// the kernels: the kernel-only counters (batches, scalar-CSE hits,
// spill traffic, resident peak) zeroed out. The oracle never spills or
// batches, while everything the cost model prices must still match.
func coreMetrics(m exec.Metrics) exec.Metrics {
	m.BatchesProcessed, m.ScalarCSEHits = 0, 0
	m.Spills, m.SpillBytesWritten, m.SpillBytesRead, m.PeakResidentBytes = 0, 0, 0, 0
	return m
}

// lineDiff reports the first line where two renderings differ.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("has %d lines, want %d", len(g), len(w))
}

// fail is the harness's one failure printer: the cell (the subtest
// name carries its axis values), what broke, the script and the plan.
func (r *runner) fail(t *testing.T, p *plan.Node, format string, args ...any) {
	t.Helper()
	msg := fmt.Sprintf("%s: %s\n", t.Name(), fmt.Sprintf(format, args...))
	if r.w.Script != "" {
		msg += "script:" + r.w.Script
	}
	if p != nil {
		msg += "plan:\n" + plan.Format(p)
	}
	t.Fatal(msg)
}
