package mqo

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/share"
)

// Config parameterizes materialization selection.
type Config struct {
	// Budget bounds the total estimated artifact bytes of the chosen
	// set (0 = unlimited).
	Budget int64
	// Workers bounds the concurrent cost evaluations while seeding
	// the greedy heap (0 = GOMAXPROCS, 1 = serial). Every width
	// produces an identical selection: benefits are pure functions of
	// (script, cache state, forced set) and are gathered by candidate
	// index.
	Workers int
}

// Selection is a chosen materialization set with its workload cost.
type Selection struct {
	// Method names the selection algorithm ("greedy", "exhaustive",
	// "per-script", or "greedy+guard" when the per-script baseline's
	// set was adopted because it priced below the greedy one).
	Method string
	// Chosen are the selected groups in deterministic candidate
	// order; Keys are their identities (what share.RunOpts.ForceMaterialize takes).
	Chosen []*MergedGroup
	Keys   []core.Subexpr
	// Base is the workload cost with nothing materialized across
	// scripts (within-script CSE still applies); Total is the cost
	// under the chosen set, persist charges included.
	Base  float64
	Total float64
	// PerScript are the per-script plan costs under the chosen set.
	PerScript []float64
	// Bytes is the estimated artifact payload, bounded by Budget.
	Bytes  int64
	Budget int64
	// Evals is the evaluator's optimizer-invocation count after this
	// selection (cumulative per evaluator).
	Evals int
}

// benefitItem is one heap entry of the lazy greedy selector.
type benefitItem struct {
	idx     int     // candidate index in dag.Candidates
	benefit float64 // cost reduction vs. the chosen set at stamp
	stamp   int     // commit round the benefit was computed against
}

// benefitHeap orders by benefit descending, candidate index ascending
// on ties — deterministic at any worker width.
type benefitHeap []benefitItem

func (h benefitHeap) Len() int { return len(h) }
func (h benefitHeap) Less(i, j int) bool {
	if h[i].benefit != h[j].benefit {
		return h[i].benefit > h[j].benefit
	}
	return h[i].idx < h[j].idx
}
func (h benefitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *benefitHeap) Push(x any)   { *h = append(*h, x.(benefitItem)) }
func (h *benefitHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Select picks the workload's materialization set: the lazy greedy
// heuristic, guarded by the per-script baseline — if simulating the
// session's local admission policy prices below the greedy set under
// the same cost model, its set is adopted instead. The guard makes
// "global never loses to per-script greedy" structural rather than
// empirical.
func Select(ev *Evaluator, cfg Config) (*Selection, error) {
	g, err := SelectGreedy(ev, cfg)
	if err != nil {
		return nil, err
	}
	p, err := SelectPerScript(ev, cfg)
	if err != nil {
		return nil, err
	}
	if p.Total < g.Total {
		guarded := *p
		guarded.Method = "greedy+guard"
		guarded.Evals = ev.Evals()
		return &guarded, nil
	}
	g.Evals = ev.Evals()
	return g, nil
}

// SelectGreedy runs the lazy greedy selector (Kathuria & Sudarshan's
// monotone-benefit variant of Roy et al.): seed a priority queue with
// every candidate's benefit against the empty set, then repeatedly
// re-cost only the queue's top against the currently chosen set —
// committing it when its re-costed benefit is still the maximum and
// positive, stopping when the freshest top benefit is non-positive.
// Candidates that no longer fit the budget, or whose forced
// materialization the builder plan cannot realize (their fingerprint
// drifts when a nested selected spool is inserted below them), are
// dropped permanently.
func SelectGreedy(ev *Evaluator, cfg Config) (*Selection, error) {
	base, err := ev.EvalSet(nil)
	if err != nil {
		return nil, err
	}
	cands := ev.dag.Candidates
	sel := &Selection{
		Method: "greedy",
		Base:   base.Total,
		Total:  base.Total,
		Budget: cfg.Budget,
	}
	chosen := map[core.Subexpr]bool{}

	// Seed: every candidate's standalone benefit, evaluated
	// concurrently, gathered by index.
	type seed struct {
		cost *SetCost
		err  error
	}
	seeds := make([]seed, len(cands))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	done := make(chan int)
	for i := range cands {
		go func(i int) {
			sem <- struct{}{}
			c, err := ev.EvalSet(map[core.Subexpr]bool{cands[i].Key: true})
			seeds[i] = seed{cost: c, err: err}
			<-sem
			done <- i
		}(i)
	}
	for range cands {
		<-done
	}

	h := &benefitHeap{}
	for i := range cands {
		if seeds[i].err != nil {
			continue // infeasible alone; cannot become feasible later
		}
		if cfg.Budget > 0 && cands[i].Bytes() > cfg.Budget {
			continue
		}
		heap.Push(h, benefitItem{idx: i, benefit: base.Total - seeds[i].cost.Total, stamp: 0})
	}

	stamp := 0
	for h.Len() > 0 {
		top := heap.Pop(h).(benefitItem)
		g := cands[top.idx]
		if cfg.Budget > 0 && sel.Bytes+g.Bytes() > cfg.Budget {
			continue // dropped: the remaining budget can never refit it
		}
		if top.stamp != stamp {
			// Stale: re-cost against the current chosen set and requeue.
			trial := cloneSet(chosen)
			trial[g.Key] = true
			c, err := ev.EvalSet(trial)
			if err != nil {
				continue // infeasible against the chosen set; drop
			}
			heap.Push(h, benefitItem{idx: top.idx, benefit: sel.Total - c.Total, stamp: stamp})
			continue
		}
		if top.benefit <= 0 {
			break
		}
		chosen[g.Key] = true
		sel.Total -= top.benefit
		sel.Bytes += g.Bytes()
		stamp++
	}

	finalizeSelection(ev, sel, chosen)
	return sel, nil
}

// MaxExhaustive bounds the oracle's candidate count (2^n subsets).
const MaxExhaustive = 12

// SelectExhaustive enumerates every subset of the candidates and
// returns the cheapest feasible one within budget — the test oracle
// for small DAGs. Ties prefer fewer materializations, then the
// lexicographically smallest index set.
func SelectExhaustive(ev *Evaluator, cfg Config) (*Selection, error) {
	cands := ev.dag.Candidates
	if len(cands) > MaxExhaustive {
		return nil, fmt.Errorf("mqo: %d candidates exceed the exhaustive bound of %d",
			len(cands), MaxExhaustive)
	}
	var best *SetCost
	bestMask := -1
	for mask := 0; mask < 1<<len(cands); mask++ {
		set := map[core.Subexpr]bool{}
		for i := range cands {
			if mask&(1<<i) != 0 {
				set[cands[i].Key] = true
			}
		}
		c, err := ev.EvalSet(set)
		if err != nil {
			continue // infeasible subset
		}
		if cfg.Budget > 0 && c.Bytes > cfg.Budget {
			continue
		}
		if best == nil || c.Total < best.Total ||
			(c.Total == best.Total && popcount(mask) < popcount(bestMask)) {
			best, bestMask = c, mask
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mqo: no feasible subset")
	}
	chosen := map[core.Subexpr]bool{}
	for i := range cands {
		if bestMask&(1<<i) != 0 {
			chosen[cands[i].Key] = true
		}
	}
	base, err := ev.EvalSet(nil)
	if err != nil {
		return nil, err
	}
	sel := &Selection{
		Method: "exhaustive",
		Base:   base.Total,
		Total:  best.Total,
		Bytes:  best.Bytes,
		Budget: cfg.Budget,
	}
	finalizeSelection(ev, sel, chosen)
	return sel, nil
}

func popcount(mask int) int {
	n := 0
	for mask > 0 {
		n += mask & 1
		mask >>= 1
	}
	return n
}

// SelectPerScript simulates the session's local admission policy over
// the batch — the ablation baseline the global selection must beat.
// Scripts run in order against a growing virtual cache; every artifact
// of each natural plan faces share.Admit with the demand observed so
// far, and a budget check. No cross-script single-consumer
// subexpression can ever materialize here: a local plan has no spool
// for it.
func SelectPerScript(ev *Evaluator, cfg Config) (*Selection, error) {
	entries := map[core.Subexpr]built{}
	demand := map[core.Subexpr]int64{}
	sel := &Selection{
		Method:    "per-script",
		Budget:    cfg.Budget,
		PerScript: make([]float64, len(ev.dag.Scripts)),
	}
	var persist float64
	for i := range ev.dag.Scripts {
		se := ev.evalScript(i, nil, entries)
		if se.err != nil {
			return nil, se.err
		}
		sel.PerScript[i] = se.cost
		sel.Total += se.cost
		for _, k := range sortedSpoolKeys(se.spooled) {
			if _, cached := entries[k]; cached {
				continue
			}
			b := se.spooled[k]
			admit := share.Admit(b.Artifact, demand[k])
			demand[k]++
			if !admit || cfg.Budget > 0 && sel.Bytes+b.bytes() > cfg.Budget {
				continue
			}
			entries[k] = b
			sel.Bytes += b.bytes()
			persist += b.Read
		}
	}
	sel.Total += persist
	sel.Base = sel.Total // the baseline is its own reference point
	sel.Evals = ev.Evals()
	for _, k := range sortedSpoolKeys(entries) {
		sel.Keys = append(sel.Keys, k)
		if g, ok := ev.dag.Groups[k]; ok {
			sel.Chosen = append(sel.Chosen, g)
		}
	}
	return sel, nil
}

// finalizeSelection fills Keys/Chosen/PerScript from the chosen set.
func finalizeSelection(ev *Evaluator, sel *Selection, chosen map[core.Subexpr]bool) {
	for _, g := range ev.dag.Candidates {
		if chosen[g.Key] {
			sel.Chosen = append(sel.Chosen, g)
			sel.Keys = append(sel.Keys, g.Key)
		}
	}
	if c, err := ev.EvalSet(chosen); err == nil {
		sel.PerScript = c.PerScript
		sel.Total = c.Total
		sel.Bytes = c.Bytes
	}
	sel.Evals = ev.Evals()
}

func cloneSet(set map[core.Subexpr]bool) map[core.Subexpr]bool {
	out := make(map[core.Subexpr]bool, len(set)+1)
	for k, v := range set {
		out[k] = v
	}
	return out
}

// sortedSpoolKeys orders entry identities by fingerprint, then
// canonical signature string.
func sortedSpoolKeys(m map[core.Subexpr]built) []core.Subexpr {
	keys := make([]core.Subexpr, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].FP != keys[j].FP {
			return keys[i].FP < keys[j].FP
		}
		return m[keys[i]].Sig < m[keys[j]].Sig
	})
	return keys
}
