package exec_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/difftest"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
)

// TestOrderedOutputIsSorted checks the ORDER BY contract directly:
// the executor's own validation passed (Run would have failed
// otherwise), and the rows really are sorted.
func TestOrderedOutputIsSorted(t *testing.T) {
	src := difftest.Scripts["ordered-output"]
	w := datagen.SmallWorkload("ordered", src, 2_000, 1_000, 13)
	m, err := logical.BuildSource(src, w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(m, opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cl := testClusterFS(t, 5, w.FS)
	outs, err := cl.Run(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	tab := outs["sorted.out"]
	bi, ai := tab.Schema.Index("B"), tab.Schema.Index("A")
	for i := 1; i < len(tab.Rows); i++ {
		prev, cur := tab.Rows[i-1], tab.Rows[i]
		cb := prev[bi].Compare(cur[bi])
		if cb > 0 || (cb == 0 && prev[ai].Compare(cur[ai]) > 0) {
			t.Fatalf("rows %d,%d out of order: %v, %v", i-1, i, prev, cur)
		}
	}
	// The plain output of the same shared intermediate is still
	// produced (and the shared GB computed once).
	if outs["plain.out"] == nil || !outs["plain.out"].Equal(&exec.Table{Schema: tab.Schema, Rows: tab.Rows}) {
		t.Error("plain output missing or different content")
	}
	if cl.Metrics().SpoolMaterializations != 1 {
		t.Errorf("shared intermediate should spool once, metrics=%+v", cl.Metrics())
	}
	// The distinct consumer requirements (serial+sorted vs parallel)
	// show up as compensation above the spool, not as re-execution.
	if got := len(outs); got != 2 {
		t.Errorf("outputs = %d", got)
	}
}

// TestUnionAllEndToEnd checks UNION ALL itself, beyond the matrix's
// equivalence cells (TestDifferential/union-all): a union of the SAME
// shared intermediate duplicates its rows, so T2's sums are exactly
// double AGG's, and the CSE plan still materializes AGG's spool.
func TestUnionAllEndToEnd(t *testing.T) {
	src := difftest.Scripts["union-all"]
	w := datagen.SmallWorkload("union", src, 2_000, 1_000, 17)
	mRef, err := logical.BuildSource(src, w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Reference(mRef, w.FS)
	if err != nil {
		t.Fatal(err)
	}
	aggSums := map[int64]int64{}
	for _, row := range want["o1"].Rows {
		aggSums[row[0].I] = row[1].I
	}
	for _, row := range want["o2"].Rows {
		if row[1].I != 2*aggSums[row[0].I] {
			t.Fatalf("UNION ALL of AGG with itself should double sums: %v", row)
		}
	}
	m, err := logical.BuildSource(src, w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(m, opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cl := testClusterFS(t, 4, w.FS)
	if _, err := cl.Run(res.Plan); err != nil {
		t.Fatal(err)
	}
	// AGG is consumed by Output and, twice, by T2's union: shared.
	if cl.Metrics().SpoolMaterializations == 0 {
		t.Error("expected shared spools in CSE mode")
	}
}

// TestDescendingOrderedOutput runs an ORDER BY ... DESC output end to
// end: the executor validates global descending order itself, and the
// rows arrive sorted. The matrix checks its results, Avg's
// single-phase aggregation included (TestDifferential/ordered-desc).
func TestDescendingOrderedOutput(t *testing.T) {
	src := difftest.Scripts["ordered-desc"]
	w := datagen.SmallWorkload("desc", src, 2_000, 1_000, 19)
	m, err := logical.BuildSource(src, w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(m, opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := testClusterFS(t, 4, w.FS).Run(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	tab := outs["top.out"]
	si := tab.Schema.Index("S")
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i-1][si].I < tab.Rows[i][si].I {
			t.Fatalf("descending order violated at row %d", i)
		}
	}
}

// TestProjectMergeEquivalenceAndSavings: with the optional
// project-merge rule on, a deep projection chain collapses into a
// single Compute stage, the cost drops, and results are unchanged.
func TestProjectMergeEquivalenceAndSavings(t *testing.T) {
	src := `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
P1 = SELECT A, B, D+1 as D1 FROM R0;
P2 = SELECT A, B, D1*2 as D2 FROM P1;
P3 = SELECT A, D2 as V, B FROM P2;
P4 = SELECT A, V + B as W FROM P3;
G = SELECT A, Sum(W) as S FROM P4 GROUP BY A;
OUTPUT G TO "o";
`
	w := datagen.SmallWorkload("pm", src, 2_000, 1_000, 23)
	run := func(merge bool) (float64, int, map[string]*exec.Table) {
		opts := opt.DefaultOptions()
		opts.Rules.EnableProjectMerge = merge
		m, err := logical.BuildSource(src, w.Cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Optimize(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.ValidatePlan(res.Plan); err != nil {
			t.Fatal(err)
		}
		cl := testClusterFS(t, 4, w.FS)
		outs, err := cl.Run(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		computes := len(plan.FindAll(res.Plan, relop.KindPhysProject))
		return res.Cost, computes, outs
	}
	costOff, computesOff, outOff := run(false)
	costOn, computesOn, outOn := run(true)
	t.Logf("project merge: cost %0.f -> %0.f, computes %d -> %d",
		costOff, costOn, computesOff, computesOn)
	if computesOn >= computesOff {
		t.Errorf("merge should reduce Compute stages: %d vs %d", computesOn, computesOff)
	}
	if costOn >= costOff {
		t.Errorf("merge should reduce cost: %v vs %v", costOn, costOff)
	}
	if !outOn["o"].Equal(outOff["o"]) {
		t.Error("merge changed the results")
	}
}
