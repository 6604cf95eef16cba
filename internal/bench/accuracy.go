package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/share"
)

// AccuracyRow summarizes cardinality-estimate accuracy for one
// executed workload: how many plan nodes were scored, how many missed
// by more than the mis-estimation threshold, and the mean and worst
// row q-error.
type AccuracyRow struct {
	Script  string
	Nodes   int
	Flagged int
	MeanQ   float64
	MaxQ    float64
}

// AccuracyWorkloads returns calibrated variants of the evaluation
// scripts: same physical data as MicroWorkloads, but with the catalog
// describing that data at scale 1 instead of projecting it to the
// paper's 2-billion-row logical size. Under the standard workloads
// every estimate is off by exactly the stat scale (the simulation
// design), which would drown the estimator's own error; calibrated
// stats make the q-error measure the estimator, not the simulation.
func AccuracyWorkloads() []*datagen.Workload {
	mk := func(name, script string) *datagen.Workload {
		return datagen.SmallWorkloadCols(name, script, smallPhysRows, 1, 7,
			datagen.MicroScriptColumns())
	}
	return []*datagen.Workload{
		mk("S1", ScriptS1),
		mk("S2", ScriptS2),
		mk("S3", ScriptS3),
		mk("S4", ScriptS4),
		mk("Fig5", ScriptFig5),
	}
}

// Accuracy executes the CSE plan of every calibrated evaluation
// workload in EXPLAIN ANALYZE mode on a cluster of the given size and
// scores per-node estimate accuracy. It also returns the unified
// metrics snapshot aggregated over all the runs, so the accuracy
// table and the metered totals come from the same executions.
func Accuracy(machines int, cfg Config) ([]AccuracyRow, obs.Snapshot, error) {
	reg := obs.NewRegistry()
	var rows []AccuracyRow
	for _, w := range AccuracyWorkloads() {
		res, err := RunOne(w, true, cfg)
		if err != nil {
			return nil, obs.Snapshot{}, err
		}
		x, err := share.Execute(context.Background(), res.Plan, share.Config{
			FS: w.FS, Machines: machines, MemBudget: cfg.MemBudget, Obs: reg, Analyze: true,
		}, nil)
		if err != nil {
			return nil, obs.Snapshot{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		s := x.Analysis.Summary()
		rows = append(rows, AccuracyRow{
			Script: w.Name, Nodes: s.Nodes, Flagged: s.Flagged,
			MeanQ: s.MeanQ, MaxQ: s.MaxQ,
		})
	}
	return rows, reg.Snapshot(), nil
}

// FormatAccuracy renders accuracy rows as an aligned table.
func FormatAccuracy(rows []AccuracyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %7s %9s %12s %12s\n",
		"script", "nodes", "flagged", "mean-q", "max-q")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %7d %9d %12.2f %12.2f\n",
			r.Script, r.Nodes, r.Flagged, r.MeanQ, r.MaxQ)
	}
	return b.String()
}
