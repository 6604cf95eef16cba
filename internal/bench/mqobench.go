package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"repro/internal/exec"
	"repro/internal/mqo"
	"repro/internal/opt"
	"repro/internal/share"
)

// MQOSchema identifies the BENCH_mqo.json layout; bump on any
// incompatible change so downstream readers fail loudly.
const MQOSchema = "scope-bench-mqo/1"

// MQORow is one (workload, budget) cell of the multi-query
// optimization ablation: the same batch priced under per-script
// greedy admission versus the global workload-level selection.
type MQORow struct {
	Workload string `json:"workload"`
	Scripts  int    `json:"scripts"`
	// BudgetBytes bounds the chosen set's estimated artifact bytes
	// (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes"`
	// Candidates is the merged DAG's cross-script sharing candidate
	// count; Chosen how many the global selection materializes.
	Candidates  int   `json:"candidates"`
	Chosen      int   `json:"chosen"`
	ChosenBytes int64 `json:"chosen_bytes"`
	// Base is the estimated workload cost with nothing materialized
	// across scripts; PerScript simulates the session's local greedy
	// admission; Global is the workload-level selection (both include
	// persist charges).
	Base      float64 `json:"base"`
	PerScript float64 `json:"per_script"`
	Global    float64 `json:"global"`
	// Method is the winning selector ("greedy" or "greedy+guard").
	Method string `json:"method"`
	// Evals is the evaluator's cumulative optimizer-invocation count.
	Evals int `json:"evals"`
	// OracleMatch reports the greedy selection priced equal to the
	// exhaustive optimum (always checked: every batch here is within
	// the exhaustive bound).
	OracleMatch bool `json:"oracle_match"`
	// Identical reports the enacted batch produced bit-identical
	// outputs to independent per-script runs.
	Identical bool `json:"identical"`
}

// MQOReport is the machine-readable MQO ablation artifact.
type MQOReport struct {
	Schema   string   `json:"schema"`
	Machines int      `json:"machines"`
	Workers  int      `json:"workers"`
	Rows     []MQORow `json:"rows"`
}

// mqoMicroBatch is the paper's S1-S4 micro scripts as one workload
// batch: every script computes the same first-level aggregation over
// test.log, so the merged DAG shares it across all four.
func mqoMicroBatch() []mqo.Script {
	return []mqo.Script{
		{Name: "S1", Src: ScriptS1},
		{Name: "S2", Src: ScriptS2},
		{Name: "S3", Src: ScriptS3},
		{Name: "S4", Src: ScriptS4},
	}
}

// mqoFuzzBatch deterministically generates a batch of single-consumer
// scripts over the micro schema: each script picks one of three
// shared aggregation cores and reduces it once — so within-script CSE
// never spools the core and the per-script baseline can never
// materialize it. Only the workload-level selection shares these.
func mqoFuzzBatch(n int, seed int64) []mqo.Script {
	r := rand.New(rand.NewSource(seed))
	cores := [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}}
	scripts := make([]mqo.Script, n)
	for i := range scripts {
		core := cores[i%len(cores)]
		down := core[r.Intn(2)]
		scripts[i] = mqo.Script{
			Name: fmt.Sprintf("F%d", i),
			Src: fmt.Sprintf(`
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT %[1]s,%[2]s,Sum(D) as S FROM R0 GROUP BY %[1]s,%[2]s;
R1 = SELECT %[3]s,Sum(S) as S1 FROM R GROUP BY %[3]s;
OUTPUT R1 TO "fuzz%[4]d.out" ORDER BY %[3]s;
`, core[0], core[1], down, i),
		}
	}
	return scripts
}

// MQOBench runs the multi-query optimization ablation: each workload
// batch is merged into one AND-OR DAG, and for at least three storage
// budget levels the global selection is priced against the simulated
// per-script greedy baseline, cross-checked against the exhaustive
// oracle, and enacted through a live session whose outputs must match
// independent per-script runs bit for bit.
func MQOBench(machines, workers int) (*MQOReport, error) {
	rep := &MQOReport{Schema: MQOSchema, Machines: machines, Workers: workers}
	batches := []struct {
		name    string
		scripts []mqo.Script
	}{
		{"micro-s1-s4", mqoMicroBatch()},
		{"fuzz-6", mqoFuzzBatch(6, 42)},
	}
	for _, b := range batches {
		rows, err := mqoWorkload(b.name, b.scripts, machines, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// mqoWorkload prices and enacts one batch at unlimited, half, and
// near-zero storage budgets.
func mqoWorkload(name string, scripts []mqo.Script, machines, workers int) ([]MQORow, error) {
	env := Small("mqo-"+name, "")
	dag, err := mqo.BuildDAG(scripts, env.Cat)
	if err != nil {
		return nil, err
	}
	if len(dag.Candidates) > mqo.MaxExhaustive {
		return nil, fmt.Errorf("%d candidates exceed the oracle bound %d",
			len(dag.Candidates), mqo.MaxExhaustive)
	}
	var total int64
	for _, g := range dag.Candidates {
		total += g.Bytes()
	}
	// One evaluator serves every budget: EvalSet memoization is
	// budget-independent, so later levels reuse earlier pricings.
	ev := mqo.NewEvaluator(dag, opt.DefaultOptions())

	// Independent per-script references for the bit-identity check.
	refs := make([]map[string]*exec.Table, len(scripts))
	for i, sc := range scripts {
		w := Small("mqo-ref-"+name, "")
		ref, err := share.RunCold(context.Background(), sc.Src, share.Config{
			Catalog: w.Cat, FS: w.FS, Machines: machines, Workers: workers,
		})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", sc.Name, err)
		}
		refs[i] = ref.Outputs
	}

	var rows []MQORow
	for _, budget := range []int64{0, total / 2, 1} {
		cfg := mqo.Config{Budget: budget, Workers: workers}
		global, err := mqo.Select(ev, cfg)
		if err != nil {
			return nil, err
		}
		perScript, err := mqo.SelectPerScript(ev, cfg)
		if err != nil {
			return nil, err
		}
		oracle, err := mqo.SelectExhaustive(ev, cfg)
		if err != nil {
			return nil, err
		}
		greedy, err := mqo.SelectGreedy(ev, cfg)
		if err != nil {
			return nil, err
		}

		row := MQORow{
			Workload:    name,
			Scripts:     len(scripts),
			BudgetBytes: budget,
			Candidates:  len(dag.Candidates),
			Chosen:      len(global.Keys),
			ChosenBytes: global.Bytes,
			Base:        global.Base,
			PerScript:   perScript.Total,
			Global:      global.Total,
			Method:      global.Method,
			Evals:       global.Evals,
			OracleMatch: math.Abs(greedy.Total-oracle.Total) <= 1e-6*math.Max(1, oracle.Total),
		}

		// Enact through a fresh session and verify bit-identity.
		enactEnv := Small("mqo-"+name, "")
		sess, err := share.NewSession(share.Config{
			Catalog: enactEnv.Cat, FS: enactEnv.FS, Machines: machines, Workers: workers,
		})
		if err != nil {
			return nil, err
		}
		enactDAG, err := mqo.BuildDAG(scripts, enactEnv.Cat)
		if err != nil {
			return nil, err
		}
		reps, err := mqo.Enact(context.Background(), sess, enactDAG, global, share.RunOpts{Tenant: "bench"})
		if err != nil {
			return nil, err
		}
		row.Identical = true
		for i, r := range reps {
			if _, differ := exec.DiffOutputs(r.Outputs, refs[i]); differ {
				row.Identical = false
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatMQO renders the ablation as an aligned table.
func FormatMQO(rep *MQOReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %12s %6s %10s %10s %10s %-12s %7s %9s\n",
		"workload", "scripts", "budget", "chosen", "base", "perscript", "global", "method", "oracle", "identical")
	for _, r := range rep.Rows {
		budget := "unlimited"
		if r.BudgetBytes > 0 {
			budget = fmt.Sprintf("%d", r.BudgetBytes)
		}
		fmt.Fprintf(&b, "%-12s %8d %12s %6d %10.0f %10.0f %10.0f %-12s %7v %9v\n",
			r.Workload, r.Scripts, budget, r.Chosen,
			r.Base, r.PerScript, r.Global, r.Method, r.OracleMatch, r.Identical)
	}
	return b.String()
}

// WriteMQOJSON writes the report to path as indented JSON.
func WriteMQOJSON(rep *MQOReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateMQOJSON re-reads an emitted BENCH_mqo.json and checks the
// ablation's invariants: at least three budget levels per workload,
// the global selection never pricing above the per-script baseline
// and strictly below it somewhere, every row oracle-checked, and
// every enacted batch bit-identical to independent runs.
func ValidateMQOJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep MQOReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != MQOSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, MQOSchema)
	}
	levels := map[string]int{}
	strictly := false
	for _, r := range rep.Rows {
		levels[r.Workload]++
		const eps = 1e-9
		switch {
		case r.Scripts < 2:
			return fmt.Errorf("%s: %s: %d scripts is not a workload", path, r.Workload, r.Scripts)
		case r.Global > r.PerScript*(1+eps):
			return fmt.Errorf("%s: %s budget=%d: global %.1f above per-script %.1f",
				path, r.Workload, r.BudgetBytes, r.Global, r.PerScript)
		case r.Global > r.Base*(1+eps):
			return fmt.Errorf("%s: %s budget=%d: global %.1f above base %.1f",
				path, r.Workload, r.BudgetBytes, r.Global, r.Base)
		case !r.OracleMatch:
			return fmt.Errorf("%s: %s budget=%d: greedy missed the exhaustive optimum",
				path, r.Workload, r.BudgetBytes)
		case !r.Identical:
			return fmt.Errorf("%s: %s budget=%d: enacted outputs differ from independent runs",
				path, r.Workload, r.BudgetBytes)
		}
		if r.Global < r.PerScript*(1-1e-9) {
			strictly = true
		}
	}
	for w, n := range levels {
		if n < 3 {
			return fmt.Errorf("%s: workload %s has %d budget levels, want >= 3", path, w, n)
		}
	}
	if len(levels) < 2 {
		return fmt.Errorf("%s: %d workloads, want >= 2", path, len(levels))
	}
	if !strictly {
		return fmt.Errorf("%s: global never strictly beats per-script at any cell", path)
	}
	return nil
}
