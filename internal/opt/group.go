package opt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/props"
)

// optimizeGroup is Algorithm 2 (phase 1) / Algorithm 4 (phase 2): it
// returns the best plan for group gid under the extended requirement
// ereq, recording property history at shared groups during phase 1
// and running re-optimization rounds at LCA groups during phase 2.
func (o *Optimizer) optimizeGroup(gid memo.GroupID, ereq props.ExtRequired, phase int) *memo.Winner {
	g := o.m.Group(gid)

	// Alg. 2 lines 1–3: record the history of requested properties
	// at shared groups, expanding range requirements into their
	// concrete satisfying schemes (Sec. V).
	if phase == 1 && g.Shared && len(g.History) < o.opts.MaxHistoryPerGroup {
		for _, r := range core.ExpandHistory(ereq.Required, o.opts.MaxHistoryPerReq) {
			if len(g.History) >= o.opts.MaxHistoryPerGroup {
				break
			}
			g.AddHistory(r)
		}
	}

	// Restrict pins to the shared groups actually reachable below
	// this group so winner contexts stay shareable across rounds.
	if phase == 2 && len(ereq.ForShared) > 0 {
		ereq.ForShared = ereq.ForShared.Restrict(func(s props.GroupID) bool {
			return g.FindSharedBelow(s) != nil
		})
	}

	ctx := o.context(g, ereq, phase)
	if o.reuseWinners(phase) {
		if w, ok := o.winner(g, ctx); ok {
			if phase == 1 && g.Shared && w.Plan != nil {
				g.BumpHistoryWins(w.Plan.Dlvd)
			}
			return w
		}
	}
	if phase == 1 {
		o.stats.Phase1Tasks++
	} else {
		o.stats.Phase2Tasks++
	}

	var w *memo.Winner
	if phase == 2 && len(g.LCAOf) > 0 {
		w = o.optimizeLCA(g, ereq)
	} else {
		w = o.logPhysOpt(g, ereq, phase)
	}
	if phase == 1 && g.Shared && w.Plan != nil {
		// Sec. VIII-C ranking signal: property sets delivered by
		// winning phase-1 plans are promising phase-2 enforcements.
		g.BumpHistoryWins(w.Plan.Dlvd)
	}
	o.setWinner(g, ctx, w)
	return w
}

// optimizeLCA is Algorithm 4 lines 4–12: at the LCA of one or more
// shared groups, re-optimize the sub-DAG once per combination of
// enforceable property sets, and keep the combination whose plan has
// the lowest DAG-aware cost.
func (o *Optimizer) optimizeLCA(g *memo.Group, ereq props.ExtRequired) *memo.Winner {
	// The LCA span parents to the global phase-2 span (inherited by
	// round workers), not to whatever round happens to contain a
	// nested LCA: a flat tree keyed by group id and context is
	// deterministic; nesting by evaluation path would not be.
	var lcaSpan obs.Span
	if o.tr.Enabled() {
		lcaSpan = o.tr.Start(o.p2span, "opt", "lca", fmt.Sprintf("G%d|%s", g.ID, ereq.Key()))
		lcaSpan.Arg("shared", int64(len(g.LCAOf)))
		defer lcaSpan.End()
	}
	histories := make([]core.SharedGroupHistory, 0, len(g.LCAOf))
	for _, s := range g.LCAOf {
		sg := o.m.Group(s)
		var hp []props.Required
		if o.opts.LocalSharingOnly {
			// Related-work baseline: the shared plan is whatever is
			// locally optimal; consumers take it as-is.
			hp = []props.Required{props.AnyRequired()}
		} else if o.opts.DisableRanking {
			hp = make([]props.Required, 0, len(sg.History))
			for _, h := range sg.History {
				hp = append(hp, h.Req)
			}
		} else {
			hp = core.RankHistory(sg.History)
		}
		if len(hp) == 0 {
			hp = []props.Required{props.AnyRequired()}
		}
		sav := float64(len(o.m.Parents(s))-1) * o.model.RepartitionCost(sg.Props.Rel)
		if o.opts.DisableRanking {
			sav = 0
		}
		histories = append(histories, core.SharedGroupHistory{Group: s, Props: hp, RepartSav: sav})
	}

	var comps [][]int
	if !o.opts.DisableIndependence {
		comps = indexComponents(core.IndependentComponents(o.m, g.ID, g.LCAOf), g.LCAOf)
	}
	planner := core.NewRoundPlanner(histories, comps, o.opts.MaxRoundsPerLCA)
	o.stats.NaiveCombinations = saturatingAdd(o.stats.NaiveCombinations, planner.TotalCombinations())

	var best *memo.Winner
	bestCost := math.Inf(1)
	bestTrace := -1
	for {
		if o.expired() {
			o.stats.BudgetExhausted = true
			break
		}
		pins, ok := planner.ComponentBatch()
		if !ok {
			break
		}
		// The batch leader runs first against the live incumbent; its
		// exact DAG cost then tightens the frozen pruning bound the
		// batch siblings are evaluated under. The bound stays frozen
		// across siblings so their prune decisions are independent of
		// evaluation order.
		results := make([]roundResult, len(pins))
		results[0] = o.evalRound(g, ereq, pins[0], bestCost, lcaSpan)
		if results[0].skipped {
			o.stats.BudgetExhausted = true
			break
		}
		o.absorb(results[0].worker)
		bound := bestCost
		if results[0].cost < bound {
			bound = results[0].cost
		}
		if len(pins) > 1 {
			rest := pins[1:]
			parallelEach(o.workers(), len(rest), func(i int) {
				results[i+1] = o.evalRound(g, ereq, rest[i], bound, lcaSpan)
			})
		}
		// Merge in combo order so traces, winner pointers, and the
		// strict-less incumbent update are identical at any width.
		costs := make([]float64, 0, len(pins))
		exhausted := false
		for i, r := range results {
			if r.skipped {
				exhausted = true
				break
			}
			if i > 0 {
				o.absorb(r.worker)
			}
			o.stats.Rounds++
			if r.pruned {
				o.stats.RoundsPruned++
			}
			o.rounds = append(o.rounds, RoundTrace{
				LCA: g.ID, Pins: pins[i].Key(), Cost: r.cost, Pruned: r.pruned,
			})
			costs = append(costs, r.cost)
			if r.cost < bestCost {
				best, bestCost = r.win, r.cost
				bestTrace = len(o.rounds) - 1
			}
		}
		planner.ReportBatch(costs)
		if exhausted {
			o.stats.BudgetExhausted = true
			break
		}
	}
	if bestTrace >= 0 {
		o.rounds[bestTrace].Best = true
	}
	if best == nil {
		// Budget spent (or every round infeasible) before any round
		// produced a plan: fall back to plain optimization of this
		// group, and leave a synthetic trace so the Result records why
		// no evaluated round was marked Best. Fallback traces do not
		// count toward Stats.Rounds.
		var fsp obs.Span
		if o.tr.Enabled() {
			fsp = o.tr.Start(lcaSpan, "opt", "round", "fallback|"+ereq.ForShared.Key())
			fsp.Arg("fallback", 1)
		}
		best = o.logPhysOpt(g, ereq, 2)
		ft := RoundTrace{LCA: g.ID, Pins: ereq.ForShared.Key(), Cost: math.Inf(1), Fallback: true}
		if best.Plan != nil {
			ft.Cost = o.dagCost(best.Plan)
			ft.Best = true
		}
		fsp.Arg("cost", obs.CostArg(ft.Cost))
		fsp.End()
		o.rounds = append(o.rounds, ft)
	}
	return best
}

// indexComponents converts group-id components into index components
// over the LCAOf slice for the round planner.
func indexComponents(comps [][]memo.GroupID, order []memo.GroupID) [][]int {
	pos := map[memo.GroupID]int{}
	for i, g := range order {
		pos[g] = i
	}
	out := make([][]int, 0, len(comps))
	for _, c := range comps {
		idx := make([]int, 0, len(c))
		for _, g := range c {
			if p, ok := pos[g]; ok {
				idx = append(idx, p)
			}
		}
		if len(idx) > 0 {
			out = append(out, idx)
		}
	}
	return out
}

func saturatingAdd(a, b int) int {
	const lim = 1 << 40
	if a+b < a || a+b > lim {
		return lim
	}
	return a + b
}
