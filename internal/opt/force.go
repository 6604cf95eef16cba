package opt

import (
	"sort"

	"repro/internal/core"
	"repro/internal/memo"
)

// forceMaterializations wraps every live group matching a
// ForceMaterialize identity in a shared Spool, so the chosen plan
// materializes it even when this script consumes it only once (the
// extra consumers live in other scripts of a workload batch). Runs
// after Algorithm 1 — whose garbage collection elides single-consumer
// spools — and before the final fingerprint pass, because spool
// insertion changes ancestor fingerprints. Returns how many groups
// were newly funneled through a spool.
func (o *Optimizer) forceMaterializations() int {
	fps := core.Fingerprints(o.m)
	sigs := core.CanonicalSignatures(o.m)
	var ids []memo.GroupID
	for _, g := range o.m.Groups() {
		if o.opts.ForceMaterialize[core.NewSubexpr(fps[g.ID], sigs[g.ID])] {
			ids = append(ids, g.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	forced := 0
	for _, id := range ids {
		if core.ForceSpool(o.m, id) != memo.NoGroup {
			forced++
		}
	}
	return forced
}

// forcedFPs returns the fingerprint set of the forced
// materializations, for the lint analyzers: a forced spool may
// legitimately have a single consumer in this plan, which the P3
// read-multiplicity check would otherwise flag.
func (o *Optimizer) forcedFPs() map[uint64]bool {
	if len(o.opts.ForceMaterialize) == 0 {
		return nil
	}
	out := map[uint64]bool{}
	for k := range o.opts.ForceMaterialize {
		out[k.FP] = true
	}
	return out
}
