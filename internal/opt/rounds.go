package opt

import (
	"math"
	"sync"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/rules"
)

// This file is the phase-2 round engine: branch-and-bound pruning,
// winner-cache reuse across rounds, and concurrent evaluation of the
// independent rounds within one component batch.
//
// Determinism: a round's result depends only on the frozen memo state
// at the start of its batch, the round's pin combination, and the
// batch's pruning bound — never on scheduling. Every round (even at
// Workers=1) runs in a fresh clone whose winner writes are isolated in
// an overlay and merged back in combo order, so plans, costs, traces,
// and task counts are bit-identical at any worker count.

// roundResult is the outcome of one evaluated round.
type roundResult struct {
	win    *memo.Winner
	cost   float64
	pruned bool
	// skipped marks a round abandoned before evaluation because the
	// optimization budget had expired.
	skipped bool
	// worker is the clone that evaluated the round; its overlay,
	// traces, and counters are absorbed in combo order.
	worker *Optimizer
}

// evalRound evaluates one phase-2 round in a fresh worker clone: the
// sub-DAG at g is re-optimized with the combination's property sets
// pinned, and the resulting plan is DAG-costed against the incumbent
// bound. A partial total above the bound aborts the round (Pruned,
// +Inf): the aborted round provably costs more than a completed one,
// so the chosen plan is identical with pruning on or off.
func (o *Optimizer) evalRound(g *memo.Group, ereq props.ExtRequired, pins props.Pins, bound float64, lcaSpan obs.Span) roundResult {
	if o.expired() {
		return roundResult{skipped: true}
	}
	var sp obs.Span
	if o.tr.Enabled() {
		sp = o.tr.Start(lcaSpan, "opt", "round", pins.Key())
	}
	w := o.clone()
	merged := ereq.ForShared
	for _, pin := range pins {
		merged = merged.With(pin.Group, pin.Req)
	}
	win := w.logPhysOpt(g, ereq.WithPins(merged), 2)
	if win.Plan == nil {
		sp.Arg("cost", obs.CostArg(math.Inf(1)))
		sp.End()
		return roundResult{win: win, cost: math.Inf(1), worker: w}
	}
	c, pruned := w.dagCostBounded(win.Plan, bound)
	if o.tr.Enabled() {
		sp.Arg("cost", obs.CostArg(c))
		if pruned {
			sp.Arg("pruned", 1)
		}
		sp.End()
	}
	return roundResult{win: win, cost: c, pruned: pruned, worker: w}
}

// clone returns a round worker sharing this optimizer's frozen state
// (memo, exploration, fingerprints, deadline) with private winner
// overlay, traces, counters, and DAG-cost memo.
func (o *Optimizer) clone() *Optimizer {
	return &Optimizer{
		m:           o.m,
		model:       o.model,
		opts:        o.opts,
		explored:    o.explored,
		exploredAll: o.exploredAll,
		deadline:    o.deadline,
		ids:         o.ids,
		sigs:        o.sigs,
		probes:      o.probes,
		overlay:     map[memo.GroupID]*memo.Winners{},
		parent:      o,
		dagMemo:     map[*plan.Node]float64{},
		tr:          o.tr,
		p2span:      o.p2span,
	}
}

// workers returns the round-evaluation pool width. Nested LCAs inside
// a round worker evaluate serially: the outermost batch already owns
// the pool, and nesting would multiply goroutines without adding
// deterministic parallelism.
func (o *Optimizer) workers() int {
	if o.parent != nil {
		return 1
	}
	return o.opts.Workers
}

// winner resolves a cached winner through the overlay chain (this
// worker, then its ancestors) down to the memo itself.
func (o *Optimizer) winner(g *memo.Group, ctx memo.Context) (*memo.Winner, bool) {
	for p := o; p != nil; p = p.parent {
		if t := p.overlay[g.ID]; t != nil {
			if w, ok := t.Get(ctx); ok {
				return w, true
			}
		}
	}
	return g.Winner(ctx)
}

// setWinner caches a winner in this worker's overlay, or directly in
// the memo for the root optimizer.
func (o *Optimizer) setWinner(g *memo.Group, ctx memo.Context, w *memo.Winner) {
	if o.overlay == nil {
		g.SetWinner(ctx, w)
		return
	}
	o.overlayFor(g.ID).Set(ctx, w)
}

// setWinnerIfAbsent is setWinner with first-write-wins semantics, used
// when absorbing sibling overlays: a context computed by several
// rounds keeps the value from the round earliest in combo order.
func (o *Optimizer) setWinnerIfAbsent(gid memo.GroupID, ctx memo.Context, w *memo.Winner) {
	if o.overlay == nil {
		o.m.Group(gid).SetWinnerIfAbsent(ctx, w)
		return
	}
	o.overlayFor(gid).SetIfAbsent(ctx, w)
}

func (o *Optimizer) overlayFor(gid memo.GroupID) *memo.Winners {
	t := o.overlay[gid]
	if t == nil {
		t = &memo.Winners{}
		o.overlay[gid] = t
	}
	return t
}

// reuseWinners reports whether cached winners may answer lookups in
// the given phase. The DisableWinnerReuse ablation turns off phase-2
// reads only — phase 1 must stay cached because its winners double as
// phase 2's unpinned baseline — and writes always happen, so the final
// plan's spool identities stay consistent.
func (o *Optimizer) reuseWinners(phase int) bool {
	return phase == 1 || !o.opts.DisableWinnerReuse
}

// absorb merges a finished round worker back into o in combo order:
// overlay winners (first write wins), nested round traces, search
// counters, and memoized DAG costs.
func (o *Optimizer) absorb(w *Optimizer) {
	for gid, t := range w.overlay {
		t.Each(func(ctx memo.Context, win *memo.Winner) {
			o.setWinnerIfAbsent(gid, ctx, win)
		})
	}
	o.rounds = append(o.rounds, w.rounds...)
	o.stats.Rounds += w.stats.Rounds
	o.stats.RoundsPruned += w.stats.RoundsPruned
	o.stats.Phase1Tasks += w.stats.Phase1Tasks
	o.stats.Phase2Tasks += w.stats.Phase2Tasks
	o.stats.NaiveCombinations = saturatingAdd(o.stats.NaiveCombinations, w.stats.NaiveCombinations)
	if w.stats.BudgetExhausted {
		o.stats.BudgetExhausted = true
	}
	for n, c := range w.dagMemo {
		o.dagMemo[n] = c
	}
}

// dagCost returns the exact DAG-aware cost of n, memoized by root.
func (o *Optimizer) dagCost(n *plan.Node) float64 {
	if c, ok := o.dagMemo[n]; ok {
		return c
	}
	c := plan.DAGCost(n, o.model)
	o.dagMemo[n] = c
	return c
}

// dagCostBounded is dagCost under the branch-and-bound bound: it
// returns (+Inf, true) as soon as the plan provably costs more than
// bound. Only exact (un-pruned) results enter the memo; a memo hit
// above the bound classifies as pruned exactly like the aborted walk
// would, so memoization never changes a prune decision.
func (o *Optimizer) dagCostBounded(n *plan.Node, bound float64) (float64, bool) {
	if o.opts.DisableRoundPruning {
		return o.dagCost(n), false
	}
	if c, ok := o.dagMemo[n]; ok {
		if c > bound {
			return math.Inf(1), true
		}
		return c, false
	}
	c, pruned := plan.DAGCostBounded(n, o.model, bound)
	if !pruned {
		o.dagMemo[n] = c
	}
	return c, pruned
}

// exploreAll applies the logical exploration rules to every live group
// until no new groups appear. Phase 1 already explored every group it
// visited (in the same order a lazy walk would, so group ids are
// unchanged); this pass certifies the remainder so phase-2 rounds can
// run concurrently against a frozen memo.
func (o *Optimizer) exploreAll() {
	for {
		before := o.m.NumGroups()
		for _, g := range o.m.Groups() {
			if !o.explored[g.ID] {
				rules.Explore(o.m, g, o.opts.Rules, o.model.C.Machines)
				o.explored[g.ID] = true
			}
		}
		if o.m.NumGroups() == before {
			break
		}
	}
	o.exploredAll = true
}

// parallelEach runs fn(0..n-1) over a bounded worker pool (the
// Cluster.Workers pattern). Each index is handed to exactly one
// goroutine; callers own any result slot indexed by i, so no locking
// is needed.
func parallelEach(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
