package opt

import (
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/rules"
	"repro/internal/stats"
)

// The evaluation scripts, from the shared corpus.
const (
	scriptS1   = datagen.ScriptS1
	scriptS2   = datagen.ScriptS2
	scriptS3   = datagen.ScriptS3
	scriptS4   = datagen.ScriptS4
	scriptFig5 = datagen.ScriptFig5
)

// testCatalog mirrors the experiment setup: a multi-billion-row log
// (large enough that data movement dominates per-stage overheads)
// whose grouping columns all have enough distinct values that no
// partitioning choice starves the cluster outright — the {B} vs
// {A,B,C} decision stays cost-based.
func testCatalog() *stats.Catalog {
	cat := stats.NewCatalog()
	for _, f := range []string{"test.log", "test2.log"} {
		cat.Put(f, &stats.TableStats{
			Rows: 2_000_000_000,
			Columns: map[string]stats.ColumnStats{
				"A": {Distinct: 1_000, AvgBytes: 8},
				"B": {Distinct: 500, AvgBytes: 8},
				"C": {Distinct: 2_000, AvgBytes: 8},
				"D": {Distinct: 100_000_000, AvgBytes: 8},
			},
		})
	}
	return cat
}

func buildScript(t *testing.T, src string) *memo.Memo {
	t.Helper()
	m, err := logical.BuildSource(src, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildWith(src string, cat *stats.Catalog) (*memo.Memo, error) {
	return logical.BuildSource(src, cat)
}

func optimizeBoth(t *testing.T, src string) (conv, cse *Result) {
	t.Helper()
	optsConv := DefaultOptions()
	optsConv.EnableCSE = false
	var err error
	conv, err = Optimize(buildScript(t, src), optsConv)
	if err != nil {
		t.Fatalf("conventional: %v", err)
	}
	cse, err = Optimize(buildScript(t, src), DefaultOptions())
	if err != nil {
		t.Fatalf("cse: %v", err)
	}
	return conv, cse
}

func TestS1ConventionalPlanShape(t *testing.T) {
	optsConv := DefaultOptions()
	optsConv.EnableCSE = false
	res, err := Optimize(buildScript(t, scriptS1), optsConv)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8(a): the conventional plan reads the input twice and
	// repartitions per pipeline; no spool anywhere.
	if n := len(plan.FindAll(res.Plan, relop.KindPhysSpool)); n != 0 {
		t.Errorf("conventional plan has %d spools", n)
	}
	// The input is effectively processed twice (once per consumer).
	if got := plan.RefCount(res.Plan, relop.KindPhysExtract); got != 2 {
		t.Errorf("conventional extract executions = %v, want 2\n%s", got, plan.Format(res.Plan))
	}
	if got := plan.RefCount(res.Plan, relop.KindRepartition); got < 2 {
		t.Errorf("conventional exchanges = %v, want >= 2", got)
	}
	if res.Cost <= 0 {
		t.Error("cost must be positive")
	}
}

func TestS1CSEPlanShapeFig8b(t *testing.T) {
	// The Fig. 8 plans are sort-merge pipelines (the SCOPE profile);
	// with hash aggregation available the optimizer legitimately
	// picks hash plans instead, which the cost tests cover.
	opts := DefaultOptions()
	opts.Rules = rules.SCOPEProfile()
	res, err := Optimize(buildScript(t, scriptS1), opts)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	// One shared spool, consumed twice.
	spools := plan.FindAll(p, relop.KindPhysSpool)
	if len(spools) != 1 {
		t.Fatalf("spools = %d, want 1 shared\n%s", len(spools), plan.Format(p))
	}
	// The input is read exactly once.
	if got := plan.RefCount(p, relop.KindPhysExtract); got != 1 {
		t.Errorf("extract executions = %v, want 1\n%s", got, plan.Format(p))
	}
	// Exactly one exchange, on the single compromise column {B}
	// (the only scheme satisfying both {A,B} and {B,C} consumers).
	if got := plan.RefCount(p, relop.KindRepartition); got != 1 {
		t.Fatalf("repartition executions = %v, want 1\n%s", got, plan.Format(p))
	}
	reps := plan.FindAll(p, relop.KindRepartition)
	re := reps[0].Op.(*relop.Repartition)
	if !re.To.Cols.Equal(props.NewColSet("B")) {
		t.Errorf("repartition on %v, want {B}\n%s", re.To.Cols, plan.Format(p))
	}
	// The spool must deliver hash{B} with an order that lets at
	// least one consumer stream without a re-sort.
	sp := spools[0]
	if !sp.Dlvd.Part.Cols.Equal(props.NewColSet("B")) {
		t.Errorf("spool delivered %v", sp.Dlvd)
	}
	if sp.Dlvd.Order.Empty() {
		t.Errorf("spool should deliver a sort order, got %v", sp.Dlvd)
	}
	// At most one compensating sort above the spool (Fig. 8(b) node
	// 7: the second consumer re-sorts locally).
	sorts := 0
	for _, n := range plan.Operators(p) {
		if s, ok := n.Op.(*relop.Sort); ok {
			if len(n.Children) == 1 && n.Children[0].IsSpool() {
				sorts++
				_ = s
			}
		}
	}
	if sorts > 1 {
		t.Errorf("compensating sorts above spool = %d, want <= 1", sorts)
	}
}

func TestS1CSECheaperThanConventional(t *testing.T) {
	conv, cse := optimizeBoth(t, scriptS1)
	ratio := cse.Cost / conv.Cost
	t.Logf("S1: conventional=%.0f cse=%.0f ratio=%.2f", conv.Cost, cse.Cost, ratio)
	// Paper: 62% of the original cost (38% saving). Accept a band.
	if ratio >= 0.95 {
		t.Errorf("CSE should be clearly cheaper: ratio %.2f", ratio)
	}
	if ratio < 0.3 {
		t.Errorf("suspiciously large saving: ratio %.2f", ratio)
	}
	if cse.Stats.SharedGroups != 1 {
		t.Errorf("shared groups = %d", cse.Stats.SharedGroups)
	}
	if cse.Stats.Rounds == 0 {
		t.Error("phase 2 ran no rounds")
	}
}

func TestS2ThreeConsumersSavesMore(t *testing.T) {
	s2 := `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,A,Sum(S) as S1 FROM R GROUP BY B,A;
R2 = SELECT A,C,Sum(S) as S2 FROM R GROUP BY A,C;
R3 = SELECT A,Sum(S) as S3 FROM R GROUP BY A;
OUTPUT R1 TO "o1";
OUTPUT R2 TO "o2";
OUTPUT R3 TO "o3";
`
	conv1, cse1 := optimizeBoth(t, scriptS1)
	conv2, cse2 := optimizeBoth(t, s2)
	r1 := cse1.Cost / conv1.Cost
	r2 := cse2.Cost / conv2.Cost
	t.Logf("S1 ratio=%.2f, S2 ratio=%.2f", r1, r2)
	// Paper: more consumers, larger relative saving (38% → 55%).
	if r2 >= r1 {
		t.Errorf("3 consumers should save more than 2: S2 ratio %.2f >= S1 ratio %.2f", r2, r1)
	}
}

func TestPhase2NeverWorseThanPhase1(t *testing.T) {
	for name, src := range map[string]string{
		"S1": scriptS1,
		"single": `
R0 = EXTRACT A,B,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as S FROM R0 GROUP BY A,B;
OUTPUT R TO "o";
`,
	} {
		res, err := Optimize(buildScript(t, src), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cost > res.Phase1Cost*(1+1e-9) {
			t.Errorf("%s: final cost %v exceeds phase-1 cost %v", name, res.Cost, res.Phase1Cost)
		}
	}
}

func TestLinearScriptBothModesAgree(t *testing.T) {
	src := `
R0 = EXTRACT A,B,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as S FROM R0 GROUP BY A,B;
R1 = SELECT A,Sum(S) as T FROM R GROUP BY A;
OUTPUT R1 TO "o";
`
	conv, cse := optimizeBoth(t, src)
	if diff := cse.Cost - conv.Cost; diff > conv.Cost*1e-9 || diff < -conv.Cost*1e-9 {
		t.Errorf("no sharing: conventional %v vs cse %v must match", conv.Cost, cse.Cost)
	}
	if cse.Stats.SharedGroups != 0 || cse.Stats.Rounds != 0 {
		t.Errorf("stats = %+v", cse.Stats)
	}
}

func TestJoinScriptOptimizes(t *testing.T) {
	src := `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,C,Sum(S) as S1 FROM R GROUP BY B,C;
R2 = SELECT B,A,Sum(S) as S2 FROM R GROUP BY B,A;
RR = SELECT R1.B,A,C,S1,S2 FROM R1,R2 WHERE R1.B=R2.B;
OUTPUT RR TO "o";
`
	conv, cse := optimizeBoth(t, src)
	t.Logf("join: conventional=%.0f cse=%.0f", conv.Cost, cse.Cost)
	if cse.Cost >= conv.Cost {
		t.Errorf("CSE should win on the join script: %v vs %v", cse.Cost, conv.Cost)
	}
	joins := plan.FindAll(cse.Plan, relop.KindSortMergeJoin)
	hjoins := plan.FindAll(cse.Plan, relop.KindHashJoin)
	if len(joins)+len(hjoins) != 1 {
		t.Errorf("join ops = %d merge + %d hash, want 1 total", len(joins), len(hjoins))
	}
}

func TestFilterAndProjectScript(t *testing.T) {
	src := `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
F = SELECT A, B, D FROM R0 WHERE A > 10;
R = SELECT A,B,Sum(D) as S FROM F GROUP BY A,B;
OUTPUT R TO "o";
`
	res, err := Optimize(buildScript(t, src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.FindAll(res.Plan, relop.KindPhysFilter)) != 1 {
		t.Errorf("missing filter:\n%s", plan.Format(res.Plan))
	}
}

func TestBudgetStopsRounds(t *testing.T) {
	opts := DefaultOptions()
	opts.Timeout = 1 * time.Nanosecond
	res, err := Optimize(buildScript(t, scriptS1), opts)
	if err != nil {
		t.Fatal(err)
	}
	// With an exhausted budget phase 2 degenerates; the result must
	// still be a valid plan no worse than phase 1.
	if res.Plan == nil || res.Cost > res.Phase1Cost*(1+1e-9) {
		t.Errorf("budget run: cost %v phase1 %v", res.Cost, res.Phase1Cost)
	}
	if !res.Stats.BudgetExhausted {
		t.Error("BudgetExhausted should be set")
	}
}

func TestMaxRoundsCap(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxRoundsPerLCA = 3
	res, err := Optimize(buildScript(t, scriptS1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds > 3 {
		t.Errorf("rounds = %d, cap 3", res.Stats.Rounds)
	}
}

func TestAblationFlagsStillOptimal(t *testing.T) {
	base, err := Optimize(buildScript(t, scriptS1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []func(*Options){
		func(o *Options) { o.DisableIndependence = true },
		func(o *Options) { o.DisableRanking = true },
	} {
		opts := DefaultOptions()
		mod(&opts)
		res, err := Optimize(buildScript(t, scriptS1), opts)
		if err != nil {
			t.Fatal(err)
		}
		// With one shared group the extensions change only round
		// order, never the final plan cost.
		if !approx(res.Cost, base.Cost) {
			t.Errorf("ablation changed S1 cost: %v vs %v", res.Cost, base.Cost)
		}
	}
}

func TestDeterministicOptimization(t *testing.T) {
	var costs []float64
	for i := 0; i < 3; i++ {
		res, err := Optimize(buildScript(t, scriptS1), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, res.Cost)
	}
	if !approx(costs[0], costs[1]) || !approx(costs[1], costs[2]) {
		t.Errorf("nondeterministic costs: %v", costs)
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}
