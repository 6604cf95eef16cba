package mqo

import (
	"fmt"
	"maps"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/relop"
	"repro/internal/share"
)

// built is one hypothetical cached artifact during cost-only
// evaluation: the optimizer's record of a script's plan artifact, at a
// deterministic virtual path (identity + builder script).
type built struct {
	opt.Artifact
	path string
}

// entry is the CacheEntry a consumer's optimizer sees.
func (b built) entry() opt.CacheEntry { return b.Entry(b.path) }

// bytes is the artifact's estimated size.
func (b built) bytes() int64 { return b.Input().Rel.Bytes() }

// layout renders the entry for memoization keys: two evaluations of a
// script against virtually identical caches must share one result.
func (b built) layout() string {
	in := b.Input()
	return fmt.Sprintf("%s|%v|%v", b.path, in.Dlvd.Part, in.Dlvd.Order)
}

// virtualCache implements opt.ResultCache over a fixed artifact set —
// no files exist; the optimizer only needs paths, schemas, and layouts
// to cost CacheScan alternatives.
type virtualCache map[core.Subexpr]built

func (v virtualCache) Lookup(id core.Subexpr, sig string, schema relop.Schema) (opt.CacheEntry, bool) {
	b, ok := v[id]
	if !ok || !b.Matches(sig, schema) {
		return opt.CacheEntry{}, false
	}
	return b.entry(), true
}

// scriptEval is the memoized outcome of optimizing one script against
// one hypothetical cache state and forced-materialization set.
type scriptEval struct {
	cost float64
	// spooled maps every distinct spooled subexpression of the chosen
	// plan (natural and forced) to its artifact — the builder-side view
	// selection and the baseline simulation feed on.
	spooled map[core.Subexpr]built
	err     error
}

// Evaluator prices hypothetical materialization sets for a DAG. It is
// safe for concurrent use: evaluations of distinct (script, cache
// state, forced set) triples run in parallel and are memoized, so the
// greedy heap seeding, the oracle's subset sweep, and re-costing
// after each commit all share work. Every evaluation compiles its
// script afresh (a share.Compiled is good for one optimization), so
// the DAG itself is never touched.
type Evaluator struct {
	dag  *DAG
	opts opt.Options

	mu    sync.Mutex
	memo  map[string]*scriptEval // guarded by mu
	evals int                    // guarded by mu
}

// NewEvaluator wraps a DAG with a cost evaluator using the given
// optimizer options (cluster, rules, ablation toggles). CSE stays on
// — forced materialization rides on it — and any session cache,
// tracer, or lint setting is stripped: evaluation is hypothetical.
func NewEvaluator(dag *DAG, opts opt.Options) *Evaluator {
	opts.EnableCSE = true
	opts.Cache = nil
	opts.Tracer = nil
	opts.Lint = false
	opts.ForceMaterialize = nil
	opts.WorkloadCovered = nil
	return &Evaluator{
		dag:  dag,
		opts: opts,
		memo: map[string]*scriptEval{},
	}
}

// Evals returns how many optimizer invocations the evaluator has run
// (memoization cache misses) — the search-effort figure experiments
// report.
func (e *Evaluator) Evals() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals
}

// SetCost is the workload cost of one materialization set.
type SetCost struct {
	// Total = sum of per-script plan costs + persist charges.
	Total float64
	// PerScript are the individual script plan costs in batch order.
	PerScript []float64
	// Persist is the total artifact-write charge, priced like one
	// consumer read per artifact — mirroring the session's admission
	// formula.
	Persist float64
	// Bytes is the estimated artifact payload of the set.
	Bytes int64
}

// EvalSet prices the workload under a hypothetical materialization
// set: scripts are evaluated in batch order; each selected group is
// force-materialized by its builder (the earliest script containing
// it) and offered as a virtual cache entry to every later script.
// Returns an error when some selected group cannot be materialized by
// its builder's plan (the selector treats that group as infeasible).
func (e *Evaluator) EvalSet(set map[core.Subexpr]bool) (*SetCost, error) {
	chosen := e.chosenOrder(set)
	entries := map[core.Subexpr]built{}
	out := &SetCost{PerScript: make([]float64, len(e.dag.Scripts))}
	for i := range e.dag.Scripts {
		var forced []core.Subexpr
		for _, g := range chosen {
			if g.Builder() == i {
				forced = append(forced, g.Key)
			}
		}
		se := e.evalScript(i, forced, entries)
		if se.err != nil {
			return nil, se.err
		}
		out.PerScript[i] = se.cost
		out.Total += se.cost
		for _, k := range forced {
			b, ok := se.spooled[k]
			if !ok {
				return nil, fmt.Errorf("mqo: script %d plan did not materialize %s", i, k)
			}
			entries[k] = b
			out.Persist += b.Read
			out.Bytes += b.bytes()
		}
	}
	out.Total += out.Persist
	return out, nil
}

// chosenOrder resolves a key set to its candidate groups in the DAG's
// deterministic candidate order.
func (e *Evaluator) chosenOrder(set map[core.Subexpr]bool) []*MergedGroup {
	var out []*MergedGroup
	for _, g := range e.dag.Candidates {
		if set[g.Key] {
			out = append(out, g)
		}
	}
	return out
}

// evalScript optimizes script i against a hypothetical cache state,
// force-materializing the given keys, and returns the memoized
// outcome. forced must be in deterministic order; avail is read, not
// retained.
func (e *Evaluator) evalScript(i int, forced []core.Subexpr, avail map[core.Subexpr]built) *scriptEval {
	key := evalKey(i, forced, avail)
	e.mu.Lock()
	if se, ok := e.memo[key]; ok {
		e.mu.Unlock()
		return se
	}
	e.mu.Unlock()

	se := e.runScript(i, forced, avail)

	e.mu.Lock()
	defer e.mu.Unlock()
	// A concurrent evaluation may have raced us here; both computed
	// the same pure function, so either result is fine.
	if prior, ok := e.memo[key]; ok {
		return prior
	}
	e.memo[key] = se
	e.evals++
	return se
}

func (e *Evaluator) runScript(i int, forced []core.Subexpr, avail map[core.Subexpr]built) *scriptEval {
	c, err := share.Compile(e.dag.Scripts[i].Src, e.dag.Cat, true)
	if err != nil {
		return &scriptEval{err: err}
	}
	o := e.opts
	if len(forced) > 0 {
		o.ForceMaterialize = map[core.Subexpr]bool{}
		for _, k := range forced {
			o.ForceMaterialize[k] = true
		}
	}
	if len(avail) > 0 {
		o.Cache = virtualCache(maps.Clone(avail))
	}
	res, err := share.Optimize(c, o)
	if err != nil {
		return &scriptEval{err: err}
	}
	se := &scriptEval{cost: res.Cost, spooled: map[core.Subexpr]built{}}
	for _, a := range res.Artifacts {
		if _, dup := se.spooled[a.ID]; !dup {
			se.spooled[a.ID] = built{Artifact: a, path: fmt.Sprintf("__mqo/%016x-%d", a.Input().FP, i)}
		}
	}
	return se
}

// evalKey canonically renders an evaluation's inputs. Available
// entries are keyed with their layouts: the same identity
// materialized under different physical properties is a different
// cache state.
func evalKey(i int, forced []core.Subexpr, avail map[core.Subexpr]built) string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%d", i)
	b.WriteString("|F")
	for _, k := range forced {
		fmt.Fprintf(&b, ";%s", k)
	}
	b.WriteString("|A")
	for _, k := range sortedSpoolKeys(avail) {
		fmt.Fprintf(&b, ";%s|%s", k, avail[k].layout())
	}
	return b.String()
}
