package scope

import (
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
)

const s1 = datagen.ScriptS1

func testDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.RegisterStats("test.log", 2_000_000_000,
		ColumnStats{Name: "A", Distinct: 20_000},
		ColumnStats{Name: "B", Distinct: 5_000},
		ColumnStats{Name: "C", Distinct: 50_000},
		ColumnStats{Name: "D", Distinct: 1 << 40},
	)
	return db
}

func TestCompileErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Compile("not a script"); err == nil {
		t.Error("garbage should not compile")
	}
	if _, err := db.Compile(`R = SELECT X FROM Y; OUTPUT R TO "o";`); err == nil {
		t.Error("unknown source should not compile")
	}
	if _, err := db.Compile(s1); err != nil {
		t.Errorf("S1 should compile: %v", err)
	}
}

func TestOptimizeCSEvsConventional(t *testing.T) {
	db := testDB(t)
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	cse, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	conv, err := q.Optimize(WithCSE(false))
	if err != nil {
		t.Fatal(err)
	}
	if cse.EstimatedCost() >= conv.EstimatedCost() {
		t.Errorf("cse %v should beat conventional %v", cse.EstimatedCost(), conv.EstimatedCost())
	}
	if cse.Stats().SharedGroups != 1 || cse.Stats().Rounds == 0 {
		t.Errorf("stats = %+v", cse.Stats())
	}
	if conv.Stats().SharedGroups != 0 {
		t.Errorf("conventional stats = %+v", conv.Stats())
	}
	if cse.EstimatedCost() > cse.Phase1Cost() {
		t.Error("final cost must not exceed phase-1 cost")
	}
	if !strings.Contains(cse.Explain(), "Spool") {
		t.Error("Explain should show the shared spool")
	}
	if !strings.Contains(cse.DOT("t"), "digraph") {
		t.Error("DOT output malformed")
	}
	if cse.OptimizeTime() <= 0 || cse.OptimizeTime() > time.Second {
		t.Errorf("optimize time = %v", cse.OptimizeTime())
	}
}

func TestOptionsApply(t *testing.T) {
	db := testDB(t)
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Optimize(WithSCOPEProfile(), WithMachines(50), WithMaxRounds(2),
		WithoutIndependence(), WithoutRanking())
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().Rounds > 2 {
		t.Errorf("rounds = %d, cap 2", p.Stats().Rounds)
	}
	if strings.Contains(p.Explain(), "HashAgg") {
		t.Error("SCOPE profile must not use hash aggregation")
	}
	// A tiny budget still yields a valid plan.
	pb, err := q.Optimize(WithBudget(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if !pb.Stats().BudgetExhausted {
		t.Error("budget should be exhausted")
	}
}

// TestMachinesOptionOrderIndependent: the costed cluster size is one
// fact, so WithMachines must survive a later WithSCOPEProfile (which
// replaces the rule configuration) and cost the same either way round.
func TestMachinesOptionOrderIndependent(t *testing.T) {
	db := testDB(t)
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 8, 1000} {
		before, err := q.Optimize(WithMachines(n), WithSCOPEProfile())
		if err != nil {
			t.Fatal(err)
		}
		after, err := q.Optimize(WithSCOPEProfile(), WithMachines(n))
		if err != nil {
			t.Fatal(err)
		}
		if b, a := before.EstimatedCost(), after.EstimatedCost(); b != a {
			t.Errorf("machines=%d: WithMachines first costs %.1f, WithSCOPEProfile first %.1f", n, b, a)
		}
	}
}

func TestLocalSharingBaseline(t *testing.T) {
	db := testDB(t)
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := q.Optimize(WithCSE(false))
	if err != nil {
		t.Fatal(err)
	}
	local, err := q.Optimize(WithLocalSharingOnly())
	if err != nil {
		t.Fatal(err)
	}
	full, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's separation: cost-based < local sharing < no sharing.
	if !(full.EstimatedCost() < local.EstimatedCost() && local.EstimatedCost() < conv.EstimatedCost()) {
		t.Errorf("expected full %v < local %v < conventional %v",
			full.EstimatedCost(), local.EstimatedCost(), conv.EstimatedCost())
	}
}

func TestLoadAndExecute(t *testing.T) {
	db := testDB(t)
	cols := []string{"A", "B", "C", "D"}
	if err := db.LoadTable("test.log", cols, [][]any{
		{1, 1, 1, 10}, {1, 1, 1, 5}, {1, 2, 2, 7}, {2, 2, 2, 4}, {2, 1, 3, 9},
	}); err != nil {
		t.Fatal(err)
	}
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	outs, st, err := p.Execute(4)
	if err != nil {
		t.Fatal(err)
	}
	r1 := outs["result1.out"]
	if r1 == nil {
		t.Fatal("missing result1.out")
	}
	if got := strings.Join(r1.Columns, ","); got != "A,B,S1" {
		t.Errorf("columns = %s", got)
	}
	// A=1,B=1 → 15; A=1,B=2 → 7; A=2,B=2 → 4; A=2,B=1 → 9.
	sums := map[[2]int64]int64{}
	for _, row := range r1.Rows {
		sums[[2]int64{row[0].(int64), row[1].(int64)}] = row[2].(int64)
	}
	want := map[[2]int64]int64{{1, 1}: 15, {1, 2}: 7, {2, 2}: 4, {2, 1}: 9}
	for k, v := range want {
		if sums[k] != v {
			t.Errorf("S1[%v] = %d, want %d", k, sums[k], v)
		}
	}
	if st.SpoolsShared != 1 {
		t.Errorf("exec stats = %+v", st)
	}
}

func TestLoadTableErrors(t *testing.T) {
	db := New()
	if err := db.LoadTable("t", []string{"A"}, [][]any{{1, 2}}); err == nil {
		t.Error("ragged row should fail")
	}
	if err := db.LoadTable("t", []string{"A"}, [][]any{{struct{}{}}}); err == nil {
		t.Error("unsupported type should fail")
	}
	if err := db.LoadTable("t", []string{"A", "B", "C"}, [][]any{
		{int64(1), 2.5, "x"},
	}); err != nil {
		t.Errorf("mixed types should load: %v", err)
	}
}

func TestExecuteMissingData(t *testing.T) {
	db := testDB(t) // stats only, no physical table
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Execute(2); err == nil {
		t.Error("executing without loaded data should fail")
	}
}

func TestFormatScript(t *testing.T) {
	out, err := FormatScript(`r = select A , Sum(b) as s from T group by A;output r to "o";`)
	if err != nil {
		t.Fatal(err)
	}
	want := "r = SELECT A, Sum(b) AS s FROM T GROUP BY A;\nOUTPUT r TO \"o\";\n"
	if out != want {
		t.Errorf("FormatScript = %q", out)
	}
	if _, err := FormatScript("garbage"); err == nil {
		t.Error("garbage should not format")
	}
}

func TestRoundsTraceAndValidate(t *testing.T) {
	db := testDB(t)
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	rounds := p.Rounds()
	if len(rounds) == 0 {
		t.Fatal("no rounds traced")
	}
	bests := 0
	minCost := rounds[0].Cost
	for _, r := range rounds {
		if r.Pins == "" {
			t.Error("round without pins")
		}
		if r.Best {
			bests++
			if r.Cost != p.EstimatedCost() {
				t.Errorf("best round cost %v != plan cost %v", r.Cost, p.EstimatedCost())
			}
		}
		if r.Cost < minCost {
			minCost = r.Cost
		}
	}
	if bests != 1 {
		t.Errorf("best rounds = %d, want 1", bests)
	}
	if minCost != p.EstimatedCost() {
		t.Errorf("cheapest round %v should be the chosen plan %v", minCost, p.EstimatedCost())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := testDB(t)
	if err := db.LoadTable("test.log", []string{"A", "B", "C", "D"}, [][]any{
		{1, 1, 1, 10}, {1, 1, 1, 5}, {1, 2, 2, 7}, {2, 2, 2, 4}, {2, 1, 3, 9},
	}); err != nil {
		t.Fatal(err)
	}
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExplainAnalyze(3)
	if err != nil {
		t.Fatal(err)
	}
	// Every node line must carry both estimate and actual; the
	// extract's actual is the loaded row count.
	if !strings.Contains(out, "est=") || !strings.Contains(out, "actual=") {
		t.Fatalf("missing annotations:\n%s", out)
	}
	if !strings.Contains(out, "actual=5") {
		t.Errorf("extract actual should be 5 rows:\n%s", out)
	}
	if strings.Contains(out, "actual=?") {
		t.Errorf("all executed nodes should record actuals:\n%s", out)
	}
	if !strings.Contains(out, "(shared, see above)") {
		t.Errorf("shared spool should be elided:\n%s", out)
	}
}

func TestPlanJSONRoundTripThroughFacade(t *testing.T) {
	db := testDB(t)
	if err := db.LoadTable("test.log", []string{"A", "B", "C", "D"}, [][]any{
		{1, 1, 1, 10}, {1, 1, 1, 5}, {1, 2, 2, 7}, {2, 2, 2, 4}, {2, 1, 3, 9},
	}); err != nil {
		t.Fatal(err)
	}
	q, err := db.Compile(s1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	orig, _, err := p.Execute(3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := db.LoadPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded plan invalid: %v", err)
	}
	if loaded.Explain() != p.Explain() {
		t.Error("loaded plan explains differently")
	}
	replay, _, err := loaded.Execute(3)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range orig {
		got := replay[path]
		if got == nil || len(got.Rows) != len(want.Rows) {
			t.Errorf("replayed %q differs", path)
		}
	}
	if _, err := db.LoadPlan([]byte("junk")); err == nil {
		t.Error("junk should not load")
	}
}
