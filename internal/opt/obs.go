package opt

import "repro/internal/obs"

// This file adapts Stats to the unified observability layer. The
// public fields stay the source of truth; Snapshot/Publish/String are
// derived views so CLIs and registries report optimizer effort in the
// same shape as executor and cache metrics.

// Snapshot converts the stats to a unified metrics snapshot under the
// "opt." prefix.
func (s Stats) Snapshot() obs.Snapshot {
	out := obs.NewSnapshot()
	out.Counters["opt.shared_groups"] = int64(s.SharedGroups)
	out.Counters["opt.rounds"] = int64(s.Rounds)
	out.Counters["opt.rounds_pruned"] = int64(s.RoundsPruned)
	out.Counters["opt.naive_combinations"] = int64(s.NaiveCombinations)
	out.Counters["opt.phase1_tasks"] = int64(s.Phase1Tasks)
	out.Counters["opt.phase2_tasks"] = int64(s.Phase2Tasks)
	var exhausted int64
	if s.BudgetExhausted {
		exhausted = 1
	}
	out.Counters["opt.budget_exhausted"] = exhausted
	return out
}

// Publish folds one run's search counters and its wall-clock
// optimization time (the opt.optimize_us histogram) into a registry
// (nil-safe). The time is per run, so the histogram's count is the
// number of optimizations published. A result served from a plan store
// counts one opt.plan_hits instead of the search counters: no search
// ran, though identification did, so opt.shared_groups still counts.
func (r *Result) Publish(reg *obs.Registry) {
	snap := r.Stats.Snapshot()
	if r.Cached {
		snap = obs.NewSnapshot()
		snap.Counters["opt.plan_hits"] = 1
		snap.Counters["opt.shared_groups"] = int64(r.Stats.SharedGroups)
	}
	snap.Hists["opt.optimize_us"] = obs.HistObservation(r.Duration.Microseconds())
	reg.Record(snap)
}

// String renders the stats in the stable snapshot layout.
func (s Stats) String() string { return s.Snapshot().String() }
