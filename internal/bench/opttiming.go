package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/datagen"
)

// OptSchema identifies the BENCH_opt.json layout; bump on any
// incompatible change so downstream readers fail loudly.
const OptSchema = "scope-bench-opt/1"

// OptRow is one measured optimizer configuration on one workload:
// search-effort counters from the phase-2 round engine plus the
// best-of-iters optimization wall clock.
type OptRow struct {
	Workload      string  `json:"workload"`
	Variant       string  `json:"variant"`
	Cost          float64 `json:"cost"`
	SharedGroups  int     `json:"shared_groups"`
	Rounds        int     `json:"rounds"`
	RoundsPruned  int     `json:"rounds_pruned"`
	NaiveRounds   int     `json:"naive_rounds"`
	Phase1Tasks   int     `json:"phase1_tasks"`
	Phase2Tasks   int     `json:"phase2_tasks"`
	NsPerOptimize int64   `json:"ns_per_optimize"`
}

// OptReport is the machine-readable optimizer benchmark artifact.
type OptReport struct {
	Schema   string   `json:"schema"`
	Machines int      `json:"machines"`
	Iters    int      `json:"iters"`
	Workers  int      `json:"workers"`
	Rows     []OptRow `json:"rows"`
}

// OptVariants lists the round-engine configurations the sweep
// measures: the full engine, each tentpole optimization ablated, and
// the engine forced serial (equal plans, possibly different wall
// clock).
func OptVariants() []string {
	return []string{"full", "no-prune", "no-reuse", "serial"}
}

// optVariantConfig applies one variant to a base config.
func optVariantConfig(variant string, cfg Config) Config {
	c := cfg
	c.UsePaperBudgets = false
	switch variant {
	case "no-prune":
		c.DisableRoundPruning = true
	case "no-reuse":
		c.DisableWinnerReuse = true
		// Without phase-2 winner reuse, consumers that agree on a
		// context get structurally identical but pointer-distinct
		// subplans, which the P1/P4 sharing analyzers correctly flag;
		// the ablation measures search effort, not lint cleanliness.
		c.Lint = false
	case "serial":
		c.OptWorkers = 1
	}
	return c
}

// OptTimings measures the optimizer itself (not plan execution) over
// the builtin workloads under every round-engine variant. Each
// (workload, variant) pair is optimized iters times and the fastest
// run is reported, with the search counters taken from it — the
// optimizer is deterministic, so counters are identical across iters.
func OptTimings(iters int, cfg Config) (*OptReport, error) {
	return optTimingsOver(iters, cfg, MicroWorkloads())
}

func optTimingsOver(iters int, cfg Config, workloads []*datagen.Workload) (*OptReport, error) {
	if iters < 1 {
		iters = 1
	}
	rep := &OptReport{
		Schema:   OptSchema,
		Machines: cfg.Cluster.Machines,
		Iters:    iters,
		Workers:  runtime.GOMAXPROCS(0),
	}
	for _, w := range workloads {
		for _, variant := range OptVariants() {
			vc := optVariantConfig(variant, cfg)
			var row OptRow
			best := time.Duration(0)
			for it := 0; it < iters; it++ {
				res, err := RunOne(w, true, vc)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", w.Name, variant, err)
				}
				if it == 0 || res.Duration < best {
					best = res.Duration
					row = OptRow{
						Workload:      w.Name,
						Variant:       variant,
						Cost:          res.Cost,
						SharedGroups:  res.Stats.SharedGroups,
						Rounds:        res.Stats.Rounds,
						RoundsPruned:  res.Stats.RoundsPruned,
						NaiveRounds:   res.Stats.NaiveCombinations,
						Phase1Tasks:   res.Stats.Phase1Tasks,
						Phase2Tasks:   res.Stats.Phase2Tasks,
						NsPerOptimize: best.Nanoseconds(),
					}
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// FormatOpt renders the optimizer benchmark as an aligned table.
func FormatOpt(rep *OptReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-9s %12s %7s %7s %7s %8s %8s %12s\n",
		"script", "variant", "est. cost", "rounds", "pruned", "naive", "p1tasks", "p2tasks", "opt-time")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-6s %-9s %12.0f %7d %7d %7d %8d %8d %12s\n",
			r.Workload, r.Variant, r.Cost, r.Rounds, r.RoundsPruned, r.NaiveRounds,
			r.Phase1Tasks, r.Phase2Tasks,
			time.Duration(r.NsPerOptimize).Round(time.Microsecond))
	}
	return b.String()
}

// WriteOptJSON writes the report to path as indented JSON.
func WriteOptJSON(rep *OptReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateOptJSON re-reads an emitted BENCH_opt.json and checks the
// schema invariants, so CI catches a malformed artifact at generation
// time rather than at first downstream use.
func ValidateOptJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep OptReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != OptSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, OptSchema)
	}
	if len(rep.Rows) == 0 {
		return fmt.Errorf("%s: no rows", path)
	}
	variants := map[string]bool{}
	for _, v := range OptVariants() {
		variants[v] = true
	}
	byWorkload := map[string]map[string]bool{}
	for _, r := range rep.Rows {
		switch {
		case !variants[r.Variant]:
			return fmt.Errorf("%s: %s: unknown variant %q", path, r.Workload, r.Variant)
		case r.NsPerOptimize <= 0:
			return fmt.Errorf("%s: %s/%s: non-positive ns_per_optimize %d", path, r.Workload, r.Variant, r.NsPerOptimize)
		case r.Cost <= 0:
			return fmt.Errorf("%s: %s/%s: non-positive cost %g", path, r.Workload, r.Variant, r.Cost)
		case r.RoundsPruned < 0 || r.RoundsPruned > r.Rounds:
			return fmt.Errorf("%s: %s/%s: rounds_pruned %d outside [0, rounds=%d]", path, r.Workload, r.Variant, r.RoundsPruned, r.Rounds)
		case r.Phase1Tasks <= 0:
			return fmt.Errorf("%s: %s/%s: non-positive phase1_tasks %d", path, r.Workload, r.Variant, r.Phase1Tasks)
		}
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = map[string]bool{}
		}
		byWorkload[r.Workload][r.Variant] = true
	}
	for wl, have := range byWorkload {
		for _, v := range OptVariants() {
			if !have[v] {
				return fmt.Errorf("%s: %s: missing variant %q", path, wl, v)
			}
		}
	}
	return nil
}
