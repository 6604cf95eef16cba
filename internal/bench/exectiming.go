package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/share"
)

// ExecRow is one measured execution of an optimized plan on the
// simulated cluster: real wall-clock time of the run at a given
// worker-pool width, alongside the simulated seconds derived from the
// metered work. Correct says its outputs equal the conventional plan's
// at the first width.
type ExecRow struct {
	Script  string
	Plan    string // "conv" or "cse"
	Workers int
	Wall    time.Duration
	SimSec  float64
	Correct bool
}

// ExecWorkloads returns the builtin scripts the execution-timing
// sweep runs: the four micro-scripts plus the Fig. 5 script.
func ExecWorkloads() []*datagen.Workload {
	return []*datagen.Workload{
		Small("S1", ScriptS1),
		Small("S2", ScriptS2),
		Small("S3", ScriptS3),
		Small("S4", ScriptS4),
		Small("Fig5", ScriptFig5),
	}
}

// ExecTimings executes the conventional and CSE plan of every builtin
// workload at each worker-pool width on a cluster of the given size.
// Every run's outputs are checked against the conventional plan's at
// the first width (the differential matrix checks both plans against
// the reference interpreter); metered totals are worker-count
// invariant, so SimSec varies only across plans while Wall varies with
// the pool width.
func ExecTimings(machines int, workerCounts []int, cfg Config) ([]ExecRow, error) {
	var rows []ExecRow
	for _, w := range ExecWorkloads() {
		var conv map[string]*exec.Table
		for _, cse := range []bool{false, true} {
			res, err := RunOne(w, cse, cfg)
			if err != nil {
				return nil, err
			}
			plan := "conv"
			if cse {
				plan = "cse"
			}
			for _, workers := range workerCounts {
				start := time.Now()
				x, err := share.Execute(context.Background(), res.Plan, share.Config{
					FS: w.FS, Machines: machines, Workers: workers, MemBudget: cfg.MemBudget,
				}, nil)
				wall := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("%s %s workers=%d: %w", w.Name, plan, workers, err)
				}
				if conv == nil {
					conv = x.Outputs
				}
				_, differ := exec.DiffOutputs(x.Outputs, conv)
				simC := cfg.Cluster
				simC.Machines = machines
				rows = append(rows, ExecRow{
					Script:  w.Name,
					Plan:    plan,
					Workers: workers,
					Wall:    wall,
					SimSec:  x.Metrics.SimulatedSeconds(simC),
					Correct: !differ,
				})
			}
		}
	}
	return rows, nil
}

// FormatExec renders execution-timing rows as an aligned table.
func FormatExec(rows []ExecRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-5s %8s %12s %12s %8s\n",
		"script", "plan", "workers", "wall", "sim(s)", "correct")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-5s %8d %12s %12.6f %8v\n",
			r.Script, r.Plan, r.Workers, r.Wall.Round(time.Microsecond), r.SimSec, r.Correct)
	}
	return b.String()
}
