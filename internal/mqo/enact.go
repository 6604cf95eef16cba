package mqo

import (
	"context"

	"repro/internal/share"
)

// Enact runs the workload batch through a live session, passing the
// chosen materialization set to every run: builder scripts
// force-materialize the selected subexpressions (bypassing the
// admission formula; artifacts are owned by share.MQOOwner, outside
// tenant quotas), and later scripts pick them up as CacheScans.
// Scripts run sequentially in batch order — every builder precedes
// all its consumers by construction, since the builder is the
// earliest script containing the subexpression. The set binds these
// runs only; nothing stays forced in the session afterwards.
//
// Each consumer run is linted with a WorkloadCovered probe over the
// fingerprints already built for it, so a plan that rebuilds a
// covered subexpression surfaces as a P7 finding in its RunReport
// (when the session options enable linting).
func Enact(ctx context.Context, s *share.Session, dag *DAG, sel *Selection, opts share.RunOpts) ([]*share.RunReport, error) {
	builder := map[uint64]int{}
	for _, g := range sel.Chosen {
		if b, ok := builder[g.Key.FP]; !ok || g.Builder() < b {
			builder[g.Key.FP] = g.Builder()
		}
	}
	reps := make([]*share.RunReport, 0, len(dag.Scripts))
	for i, sc := range dag.Scripts {
		ro := opts
		ro.ForceMaterialize = sel.Keys
		idx := i
		ro.WorkloadCovered = func(fp uint64) bool {
			b, ok := builder[fp]
			return ok && b < idx
		}
		rep, err := s.RunContext(ctx, sc.Src, ro)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}
