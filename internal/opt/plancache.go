package opt

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/lint"
	"repro/internal/memo"
	"repro/internal/plan"
)

// A plan store lets a recurring script skip the search. The optimizer
// only reads it; the session writes a search's outcome after the run
// that executed it succeeded. A stored outcome is served when two
// things hold:
//
//   - the search input digests to the stored key: the memo as CSE
//     identification left it, plus every plan-affecting option;
//   - every cache lookup the stored search made gets the same answer
//     again, re-asked through the same Lookup.
//
// The search is a deterministic function of exactly these, so the
// stored outcome is what a search would return now. Nothing is ever
// invalidated: new statistics change the memo and so the key, and a
// changed, evicted or invalidated artifact changes a lookup's answer.

// PlanKey identifies one search input (see planKey).
type PlanKey [sha256.Size]byte

// SavedSearch is a finished search as a plan store keeps it: the
// chosen plan, its costs and artifacts, the search's counters, round
// traces and lint findings, the cache lookups it made, and its key. It holds no
// memo and no phase-1 plan. Treat it as immutable.
type SavedSearch struct {
	Key        PlanKey
	Plan       *plan.Node
	Cost       float64
	Phase1Cost float64
	Stats      Stats
	Rounds     []RoundTrace
	Lint       []lint.Diagnostic
	Artifacts  []Artifact
	Probes     []Probe
}

// PlanStore is an optional interface a ResultCache implements to serve
// the searches it has stored.
type PlanStore interface {
	// SavedSearch returns the outcome stored under key, if any.
	SavedSearch(key PlanKey) (*SavedSearch, bool)
}

// planStore returns the plan store this search reads, or nil when the
// cache keeps none or the options make the search's outcome depend on
// more than its key: forced materializations, a workload-covered lint
// probe, a tracer that wants the spans, or a wall-clock budget.
func (o *Optimizer) planStore() PlanStore {
	ps, ok := o.opts.Cache.(PlanStore)
	if !ok || len(o.opts.ForceMaterialize) > 0 || o.opts.WorkloadCovered != nil ||
		o.opts.Tracer != nil || o.opts.Timeout > 0 {
		return nil
	}
	return ps
}

// keyedOptions returns opts with every field that cannot change the
// outcome zeroed: Workers (plans are bit-identical at any width), Cache
// (its answers are the probe record's business) and the fields that
// bypass the store. Everything else — a field added later included —
// is part of the key.
func keyedOptions(opts Options) Options {
	opts.Workers, opts.Cache = 0, nil
	opts.Timeout, opts.ForceMaterialize, opts.WorkloadCovered, opts.Tracer = 0, nil, nil, nil
	return opts
}

// planKey digests the search input: the plan-affecting options, then
// the memo as CSE identification left it — every live group's
// expressions via Operator.Sig in stored order with their child group
// ids, its schema and its logical statistics. The stored order is
// deliberately not canonical: core.Subexpr ignores conjunct order and
// rowset names, which is right for results but not for search input.
// Strings are length-prefixed, so distinct memos render distinct bytes.
func planKey(m *memo.Memo, opts Options) PlanKey {
	b := fmt.Appendf(make([]byte, 0, 8<<10), "%#v\nroot %d\n", keyedOptions(opts), m.Root)
	str := func(s string) {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	num := func(n int64) {
		b = strconv.AppendInt(b, n, 10)
		b = append(b, ' ')
	}
	for _, g := range m.Groups() {
		b = append(b, 'g')
		num(int64(g.ID))
		if g.Shared {
			b = append(b, '*')
		}
		for _, e := range g.Exprs {
			b = append(b, 'e')
			str(e.Op.Sig())
			for _, c := range e.Children {
				num(int64(c))
			}
		}
		b = append(b, 's')
		for _, c := range g.Props.Schema {
			str(c.Name)
			num(int64(c.Type))
		}
		rel := g.Props.Rel
		b = append(b, 'r')
		num(rel.Rows)
		num(rel.RowBytes)
		cols := make([]string, 0, len(rel.Distinct))
		for col := range rel.Distinct {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, col := range cols {
			str(col)
			num(rel.Distinct[col])
		}
		b = append(b, '\n')
	}
	return sha256.Sum256(b)
}

// replay re-asks every lookup the saved search made, through the same
// Lookup (so a session's pinner pins what the search would have
// pinned), and reports whether each got the same answer.
func (o *Optimizer) replay(s *SavedSearch) bool {
	for _, p := range s.Probes {
		g := o.m.Group(p.Group)
		target, ok := o.lookupTarget(g)
		if !ok {
			return false
		}
		entry, _ := o.ask(g, target)
		if entry.Path != p.Path {
			return false
		}
	}
	return true
}

// servedResult is the Result of a search served from s: field for
// field what the search returned, except Duration (Run sets it), a nil
// Phase1Plan (the store keeps no second tree) and Cached.
func (o *Optimizer) servedResult(s *SavedSearch) *Result {
	return &Result{
		Plan:       s.Plan,
		Cost:       s.Cost,
		Phase1Cost: s.Phase1Cost,
		Stats:      s.Stats,
		Rounds:     slices.Clone(s.Rounds),
		Lint:       slices.Clone(s.Lint),
		Artifacts:  s.Artifacts,
		Cached:     true,
	}
}

// save returns what a plan store may keep of res, or nil when some
// group's lookups disagreed during the search.
func (o *Optimizer) save(key PlanKey, res *Result) *SavedSearch {
	probes, ok := o.probes.record()
	if !ok {
		return nil
	}
	return &SavedSearch{
		Key: key, Plan: res.Plan, Cost: res.Cost, Phase1Cost: res.Phase1Cost,
		Stats: res.Stats, Rounds: res.Rounds, Lint: res.Lint, Artifacts: res.Artifacts, Probes: probes,
	}
}
