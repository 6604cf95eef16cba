package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/share"
)

// PaperCostScale calibrates our cost units to the magnitudes of the
// paper's Fig. 7 (whose S1 conventional plan costs 8185 units). Only
// presentation changes; every ratio is scale-invariant.
const PaperCostScale = 63.2058

// Config parameterizes an experiment run.
type Config struct {
	// Cluster is the cost-model cluster (defaults applied by the
	// optimizer).
	Cluster cost.Cluster
	// Rules defaults to the SCOPE profile (sort-merge pipelines, as
	// in the paper's plans).
	Rules rules.Config
	// MaxRoundsPerLCA caps phase-2 rounds (0 = optimizer default).
	MaxRoundsPerLCA int
	// UsePaperBudgets applies the paper's 30 s / 60 s optimization
	// budgets to LS1 / LS2.
	UsePaperBudgets bool
	// OptWorkers overrides the phase-2 round-evaluation pool width
	// (0 = optimizer default of GOMAXPROCS; results are identical at
	// any width).
	OptWorkers int
	// Ablations.
	DisableIndependence bool
	DisableRanking      bool
	DisableRoundPruning bool
	DisableWinnerReuse  bool
	// Lint runs the plan analyzers on every optimized plan and fails
	// the run on error-severity findings, so experiment numbers are
	// never reported off a plan that violates the sharing invariants.
	Lint bool
	// Tracer, when non-nil, receives optimizer spans from every
	// RunOne. The span tree is deterministic at any OptWorkers width.
	Tracer *obs.Tracer
	// MemBudget is the per-partition working-set bound in bytes for
	// experiments that run plans (0 = unbounded). See exec.Cluster.
	MemBudget int64
}

// DefaultConfig returns the configuration the experiments use.
func DefaultConfig() Config {
	c := cost.DefaultCluster()
	c.Scale = PaperCostScale
	return Config{
		Cluster:         c,
		Rules:           rules.SCOPEProfile(),
		UsePaperBudgets: true,
		Lint:            true,
	}
}

// RunOne optimizes a workload once.
func RunOne(w *datagen.Workload, enableCSE bool, cfg Config) (*opt.Result, error) {
	opts := cfg.options(w)
	opts.EnableCSE = enableCSE
	return optimize(w, w.Name, opts)
}

// options is the optimizer configuration cfg describes for w.
func (cfg Config) options(w *datagen.Workload) opt.Options {
	opts := opt.DefaultOptions()
	opts.Cluster = cfg.Cluster
	opts.Rules = cfg.Rules
	opts.DisableIndependence = cfg.DisableIndependence
	opts.DisableRanking = cfg.DisableRanking
	opts.DisableRoundPruning = cfg.DisableRoundPruning
	opts.DisableWinnerReuse = cfg.DisableWinnerReuse
	if cfg.OptWorkers > 0 {
		opts.Workers = cfg.OptWorkers
	}
	if cfg.MaxRoundsPerLCA > 0 {
		opts.MaxRoundsPerLCA = cfg.MaxRoundsPerLCA
	}
	if cfg.UsePaperBudgets && w.BudgetSeconds > 0 {
		opts.Timeout = time.Duration(w.BudgetSeconds) * time.Second
	}
	opts.Lint = cfg.Lint
	opts.Tracer = cfg.Tracer
	return opts
}

// optimize compiles and optimizes w under opts, refusing a plan the
// lint oracle rejects; name labels its errors.
func optimize(w *datagen.Workload, name string, opts opt.Options) (*opt.Result, error) {
	c, err := share.Compile(w.Script, w.Cat, opts.EnableCSE)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res, err := share.Optimize(c, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, lintOracle(name, res)
}

// lintOracle fails a run whose chosen plan carries error-severity
// findings. Sharing bugs are silent cost regressions, so without this
// gate a broken optimizer would simply report slightly different
// experiment numbers.
func lintOracle(name string, res *opt.Result) error {
	for _, d := range res.Lint {
		if d.Severity == lint.Error {
			return fmt.Errorf("%s: plan lint: %s", name, d)
		}
	}
	return nil
}

// Fig7Row is one column group of Fig. 7: a script optimized
// conventionally and with the CSE framework.
type Fig7Row struct {
	Script       string
	ConvCost     float64
	CSECost      float64
	Saving       float64 // 1 - CSE/Conv
	PaperSaving  float64
	SharedGroups int
	Rounds       int
	NaiveRounds  int
	ConvTime     time.Duration
	CSETime      time.Duration
}

// Fig7 regenerates the paper's Fig. 7: estimated plan cost with
// conventional optimization versus the CSE framework, for every
// evaluation script.
func Fig7(cfg Config) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, w := range Fig7Workloads() {
		row, err := Fig7For(w, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7For runs the Fig. 7 comparison for a single workload.
func Fig7For(w *datagen.Workload, cfg Config) (Fig7Row, error) {
	conv, err := RunOne(w, false, cfg)
	if err != nil {
		return Fig7Row{}, err
	}
	cse, err := RunOne(w, true, cfg)
	if err != nil {
		return Fig7Row{}, err
	}
	return Fig7Row{
		Script:       w.Name,
		ConvCost:     conv.Cost,
		CSECost:      cse.Cost,
		Saving:       1 - cse.Cost/conv.Cost,
		PaperSaving:  PaperSavings[w.Name],
		SharedGroups: cse.Stats.SharedGroups,
		Rounds:       cse.Stats.Rounds,
		NaiveRounds:  cse.Stats.NaiveCombinations,
		ConvTime:     conv.Duration,
		CSETime:      cse.Duration,
	}, nil
}

// FormatFig7 renders the rows as an aligned text table with the
// paper's reported savings alongside.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %14s %9s %9s %7s %8s %12s\n",
		"script", "conventional", "exploit-CSE", "saving", "paper", "shared", "rounds", "opt-time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %14.0f %14.0f %8.0f%% %8.0f%% %7d %8d %12s\n",
			r.Script, r.ConvCost, r.CSECost, r.Saving*100, r.PaperSaving*100,
			r.SharedGroups, r.Rounds, r.CSETime.Round(time.Millisecond))
	}
	return b.String()
}

// Fig8 regenerates the paper's Fig. 8: the S1 plan under conventional
// optimization (8a) and under the CSE framework (8b), rendered as
// trees. It uses the low-cardinality column profile (strongly
// reducing aggregations), under which the plans match the figure
// operator for operator — including the StreamAgg(Local) /
// Repartition+SortMerge / StreamAgg(Global) pipeline; under the
// Fig. 7 cardinalities the aggregation reduces too little for
// pre-aggregation to pay and the optimizer correctly skips the split
// (same sharing structure, no Local/Global pair).
func Fig8(cfg Config) (conv, cse string, err error) {
	w := datagen.SmallWorkloadCols("S1", ScriptS1, smallPhysRows, smallStatScale, 7,
		datagen.TestLogColumns())
	rc, err := RunOne(w, false, cfg)
	if err != nil {
		return "", "", err
	}
	re, err := RunOne(w, true, cfg)
	if err != nil {
		return "", "", err
	}
	return plan.Format(rc.Plan), plan.Format(re.Plan), nil
}

// RoundsRow reports phase-2 search effort for one configuration.
type RoundsRow struct {
	Config      string
	Rounds      int
	NaiveRounds int
	Cost        float64
}

// RoundsFig5 regenerates the Sec. VIII-A comparison on the Fig. 5
// script shape: rounds evaluated with and without the
// independent-shared-groups extension (the paper's 64 → 15 example,
// at whatever history sizes the optimizer actually recorded).
func RoundsFig5(cfg Config) ([]RoundsRow, error) {
	w := Small("Fig5", ScriptFig5)
	var rows []RoundsRow
	for _, ablate := range []bool{false, true} {
		c := cfg
		c.DisableIndependence = ablate
		c.MaxRoundsPerLCA = 1 << 20
		res, err := RunOne(w, true, c)
		if err != nil {
			return nil, err
		}
		name := "independent (Sec VIII-A)"
		if ablate {
			name = "cartesian product"
		}
		rows = append(rows, RoundsRow{
			Config:      name,
			Rounds:      res.Stats.Rounds,
			NaiveRounds: res.Stats.NaiveCombinations,
			Cost:        res.Cost,
		})
	}
	return rows, nil
}

// FormatRounds renders round-count rows.
func FormatRounds(rows []RoundsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %8s %12s\n", "configuration", "rounds", "naive", "est. cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %8d %8d %12.0f\n", r.Config, r.Rounds, r.NaiveRounds, r.Cost)
	}
	return b.String()
}

// BudgetRow reports cost reached under a bounded number of rounds.
type BudgetRow struct {
	Config    string
	MaxRounds int
	Cost      float64
	Rounds    int
}

// RankingUnderBudget regenerates the Sec. VIII-B/C effect: with a
// tight round budget, ranked round generation reaches a better plan
// than unranked generation.
func RankingUnderBudget(w *datagen.Workload, budgets []int, cfg Config) ([]BudgetRow, error) {
	var rows []BudgetRow
	for _, ranked := range []bool{true, false} {
		for _, mr := range budgets {
			c := cfg
			c.DisableRanking = !ranked
			c.MaxRoundsPerLCA = mr
			c.UsePaperBudgets = false
			res, err := RunOne(w, true, c)
			if err != nil {
				return nil, err
			}
			name := "ranked (Sec VIII-B/C)"
			if !ranked {
				name = "unranked"
			}
			rows = append(rows, BudgetRow{Config: name, MaxRounds: mr, Cost: res.Cost, Rounds: res.Stats.Rounds})
		}
	}
	return rows, nil
}

// BaselineRow compares three optimizers on one script: conventional
// (no sharing), local-only sharing (the related-work techniques
// [10,11,12] the paper improves on: the shared subexpression is
// planned locally optimally and forced on every consumer), and the
// paper's cost-based framework.
type BaselineRow struct {
	Script    string
	Conv      float64
	LocalCSE  float64
	PaperCSE  float64
	LocalSave float64
	PaperSave float64
}

// Baselines runs the three-way comparison over the micro-scripts.
// The gap between LocalCSE and PaperCSE is the paper's contribution
// isolated from the generic benefit of sharing.
func Baselines(cfg Config) ([]BaselineRow, error) {
	var rows []BaselineRow
	for _, w := range Fig7Workloads()[:4] {
		conv, err := RunOne(w, false, cfg)
		if err != nil {
			return nil, err
		}
		local, err := runLocal(w, cfg)
		if err != nil {
			return nil, err
		}
		paper, err := RunOne(w, true, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			Script:    w.Name,
			Conv:      conv.Cost,
			LocalCSE:  local.Cost,
			PaperCSE:  paper.Cost,
			LocalSave: 1 - local.Cost/conv.Cost,
			PaperSave: 1 - paper.Cost/conv.Cost,
		})
	}
	return rows, nil
}

// runLocal optimizes w with local-only sharing (the related-work
// baseline of Baselines).
func runLocal(w *datagen.Workload, cfg Config) (*opt.Result, error) {
	opts := cfg.options(w)
	opts.LocalSharingOnly = true
	return optimize(w, w.Name+"/local", opts)
}

// FormatBaselines renders the three-way table.
func FormatBaselines(rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %14s %14s %11s %11s\n",
		"script", "conventional", "local-CSE", "cost-based", "local-save", "paper-save")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %14.0f %14.0f %14.0f %10.0f%% %10.0f%%\n",
			r.Script, r.Conv, r.LocalCSE, r.PaperCSE, r.LocalSave*100, r.PaperSave*100)
	}
	return b.String()
}

// FormatBudget renders budget rows.
func FormatBudget(rows []BudgetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %8s %12s\n", "configuration", "maxRounds", "rounds", "est. cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %10d %8d %12.0f\n", r.Config, r.MaxRounds, r.Rounds, r.Cost)
	}
	return b.String()
}
