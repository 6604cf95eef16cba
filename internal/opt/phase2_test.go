package opt

import (
	"reflect"
	"testing"

	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

// optimizeCSE runs the full four-step pipeline on a script and
// returns the optimizer (for memo inspection) and the result.
func optimizeCSE(t *testing.T, src string, opts Options) (*Optimizer, *Result, *memo.Memo) {
	t.Helper()
	m := buildScript(t, src)
	o := New(m, opts)
	res, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	return o, res, m
}

// TestHistoryRecordingAlg2 checks Step 2 directly: after phase 1 the
// shared group's history holds the Sec. V expansion of every
// requested requirement — exact schemes over subsets of the
// consumers' grouping keys plus the vacuous entry from local
// aggregation — with win counters on the locally winning ones.
func TestHistoryRecordingAlg2(t *testing.T) {
	_, _, m := optimizeCSE(t, scriptS1, DefaultOptions())
	shared := m.SharedGroups()
	if len(shared) != 1 {
		t.Fatalf("shared groups = %d", len(shared))
	}
	g := shared[0]
	if len(g.History) == 0 {
		t.Fatal("no history recorded")
	}
	var sawAny, sawExactB, sawFull bool
	totalWins := 0
	for _, h := range g.History {
		totalWins += h.Wins
		p := h.Req.Part
		switch {
		case h.Req.IsAny():
			sawAny = true
		case p.Kind == props.PartHash && p.Exact && p.Cols.Equal(props.NewColSet("B")):
			sawExactB = true
		case p.Kind == props.PartHash && p.Exact && p.Cols.Len() == 2:
			sawFull = true
		}
		if p.Kind == props.PartHash && !p.Exact {
			t.Errorf("history entry %v not expanded to an exact scheme", h.Req)
		}
	}
	if !sawAny {
		t.Error("history should include the vacuous entry (local-aggregation consumers)")
	}
	if !sawExactB {
		t.Error("history should include exact {B} (the compromise scheme)")
	}
	if !sawFull {
		t.Error("history should include the consumers' full key sets")
	}
	if totalWins == 0 {
		t.Error("phase-1 winners should have bumped win counters")
	}
}

// TestPinnedSpoolSharedByPointer checks that in the winning phase-2
// plan both consumers reference the *same* spool node (same winner
// context), which is what makes sharing executable.
func TestPinnedSpoolSharedByPointer(t *testing.T) {
	_, res, _ := optimizeCSE(t, scriptS1, DefaultOptions())
	spools := plan.FindAll(res.Plan, relop.KindPhysSpool)
	if len(spools) != 1 {
		t.Fatalf("distinct spool nodes = %d, want 1", len(spools))
	}
	// Two references from above: RefCount of the spool kind is 2.
	if got := plan.RefCount(res.Plan, relop.KindPhysSpool); got != 2 {
		t.Errorf("spool references = %v, want 2", got)
	}
}

// TestWinnerIsolationAcrossPins checks that different pin
// combinations never share winners: optimizing the same group under
// two pins yields plans honoring each pin.
func TestWinnerIsolationAcrossPins(t *testing.T) {
	m := buildScript(t, scriptS1)
	o := New(m, DefaultOptions())
	if _, err := o.Run(); err != nil {
		t.Fatal(err)
	}
	shared := m.SharedGroups()[0]
	pinB := props.Required{Part: props.ExactHashPartitioning(props.NewColSet("B"))}
	pinAB := props.Required{Part: props.ExactHashPartitioning(props.NewColSet("A", "B"))}
	wB := o.optimizeGroup(shared.ID, props.Ext(pinB), 2)
	wAB := o.optimizeGroup(shared.ID, props.Ext(pinAB), 2)
	if wB.Plan == nil || wAB.Plan == nil {
		t.Fatal("pinned optimizations must succeed")
	}
	if wB.Plan == wAB.Plan {
		t.Error("different pins must not share a winner")
	}
	if !wB.Plan.Dlvd.Part.Cols.Equal(props.NewColSet("B")) {
		t.Errorf("pin {B} delivered %v", wB.Plan.Dlvd)
	}
	if !wAB.Plan.Dlvd.Part.Cols.Equal(props.NewColSet("A", "B")) {
		t.Errorf("pin {A,B} delivered %v", wAB.Plan.Dlvd)
	}
	// Repeated calls hit the winner cache (same pointer).
	if again := o.optimizeGroup(shared.ID, props.Ext(pinB), 2); again.Plan != wB.Plan {
		t.Error("same pin should return the cached winner")
	}
}

// TestEnforceGeneratesSatisfyingVariants unit-tests the enforcer
// machinery on a bare extract plan.
func TestEnforceGeneratesSatisfyingVariants(t *testing.T) {
	m := buildScript(t, `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
OUTPUT R0 TO "o";
`)
	o := New(m, DefaultOptions())
	if _, err := o.Run(); err != nil {
		t.Fatal(err)
	}
	// Find the extract group and fetch its unconstrained winner.
	var exG *memo.Group
	for _, g := range m.Groups() {
		if g.Exprs[0].Op.Kind() == relop.KindExtract {
			exG = g
		}
	}
	w := o.optimizeGroup(exG.ID, props.ExtAny(), 1)
	base := w.Plan
	req := props.Required{
		Part:  props.HashPartitioning(props.NewColSet("A", "B")),
		Order: props.NewOrdering("B", "A"),
	}
	// Variants compete as value stacks; build each to inspect it.
	var cands []*plan.Node
	for _, s := range o.enforce(nil, stack{dlvd: base.Dlvd, cost: w.Cost}, base.Rel, base.Schema, req) {
		c := o.wrap(base, s)
		if !reflect.DeepEqual(c.Dlvd, s.dlvd) {
			t.Errorf("stack delivers %v, its plan %v", s.dlvd, c.Dlvd)
		}
		if plan.TreeCost(c) != s.cost {
			t.Errorf("stack cost %v, its plan's tree cost %v", s.cost, plan.TreeCost(c))
		}
		cands = append(cands, c)
	}
	var satisfying int
	for _, c := range cands {
		if c.Dlvd.Satisfies(req) {
			satisfying++
			if plan.TreeCost(c) <= plan.TreeCost(base) {
				t.Error("enforcers must add cost")
			}
		}
	}
	if satisfying < 2 {
		t.Errorf("expected several satisfying variants (sort/exchange orders), got %d", satisfying)
	}
	// compensate picks a satisfying one.
	top, ok := o.compensate(w, req)
	if !ok || !top.dlvd.Satisfies(req) {
		t.Fatalf("compensate failed: %v", top)
	}
	comp := o.wrap(base, top)
	if !comp.Dlvd.Satisfies(req) {
		t.Fatalf("compensated plan delivers %v", comp.Dlvd)
	}
	// Already-satisfying input is returned untouched.
	cw := &memo.Winner{Plan: comp, Cost: top.cost}
	if got, ok := o.compensate(cw, req); !ok || got.n != 0 || o.wrap(comp, got) != comp {
		t.Error("compensate should be identity on satisfying plans")
	}
	// Unsatisfiable requirement (broadcast from enforcers is
	// possible; random is not requestable) — exact hash over a
	// missing column cannot be enforced.
	bad := props.Required{Part: props.ExactHashPartitioning(props.NewColSet("Z"))}
	if got, ok := o.compensate(w, bad); ok {
		t.Errorf("compensate to a missing column should fail, got %v", got.dlvd)
	}
}

// TestBroadcastJoinChosenForTinyInner builds a join with a tiny inner
// relation: the optimizer should pick a broadcast join rather than
// repartitioning the large probe side.
func TestBroadcastJoinChosenForTinyInner(t *testing.T) {
	cat := testCatalog()
	cat.Put("dim.log", &stats.TableStats{
		Rows: 100,
		Columns: map[string]stats.ColumnStats{
			"K": {Distinct: 100, AvgBytes: 8},
			"V": {Distinct: 100, AvgBytes: 8},
		},
	})
	src := `
FACTS = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
DIM = EXTRACT K,V FROM "dim.log" USING LogExtractor;
J = SELECT A, V FROM FACTS, DIM WHERE FACTS.A = DIM.K;
OUTPUT J TO "o";
`
	m, err := buildWith(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.EnableCSE = false
	res, err := Optimize(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The winning plan must broadcast the dimension side and leave
	// the fact table unexchanged.
	broadcasts := 0
	for _, n := range plan.Operators(res.Plan) {
		if re, ok := n.Op.(*relop.Repartition); ok {
			if re.To.Kind == props.PartBroadcast {
				broadcasts++
			} else {
				t.Errorf("unexpected non-broadcast exchange %v in broadcast-join plan:\n%s",
					re.To, plan.Format(res.Plan))
			}
		}
	}
	if broadcasts != 1 {
		t.Errorf("broadcast exchanges = %d, want 1:\n%s", broadcasts, plan.Format(res.Plan))
	}
}

// TestHistoryCapRespected bounds history growth under many consumer
// contexts.
func TestHistoryCapRespected(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxHistoryPerGroup = 5
	_, _, m := optimizeCSE(t, scriptS1, opts)
	for _, g := range m.SharedGroups() {
		if len(g.History) > 5 {
			t.Errorf("history length %d exceeds cap 5", len(g.History))
		}
	}
}

// TestOrderedOutputUsesRangePartitioning checks the parallel path to
// a globally sorted file: for a large result the optimizer should
// range-partition on the output order rather than gathering one
// serial stream.
func TestOrderedOutputUsesRangePartitioning(t *testing.T) {
	src := `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as S FROM R0 GROUP BY A,B;
OUTPUT R TO "sorted.out" ORDER BY B, A;
`
	res, err := Optimize(buildScript(t, src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(res.Plan); err != nil {
		t.Fatal(err)
	}
	ranges := 0
	for _, n := range plan.Operators(res.Plan) {
		if re, ok := n.Op.(*relop.Repartition); ok && re.To.Kind == props.PartRange {
			ranges++
			if !re.To.SortCols.Satisfies(props.NewOrdering("B", "A")) {
				t.Errorf("range keys %v should lead with the output order", re.To.SortCols)
			}
		}
		if re, ok := n.Op.(*relop.Repartition); ok && re.To.Kind == props.PartSerial {
			t.Errorf("large sorted output should not gather serially:\n%s", plan.Format(res.Plan))
		}
	}
	if ranges == 0 {
		t.Errorf("expected a range exchange:\n%s", plan.Format(res.Plan))
	}
	out := plan.FindAll(res.Plan, relop.KindPhysOutput)[0]
	if out.Children[0].Dlvd.Part.Kind != props.PartRange {
		t.Errorf("output input partitioning = %v, want range", out.Children[0].Dlvd.Part)
	}
}
