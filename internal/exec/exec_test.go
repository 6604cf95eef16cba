package exec

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

func smallTable() *Table {
	mk := func(a, b, c, d int64) relop.Row {
		return relop.Row{relop.IntVal(a), relop.IntVal(b), relop.IntVal(c), relop.IntVal(d)}
	}
	return &Table{
		Schema: relop.Schema{
			{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt},
			{Name: "C", Type: relop.TInt}, {Name: "D", Type: relop.TInt},
		},
		Rows: []relop.Row{
			mk(1, 1, 1, 10), mk(1, 1, 1, 5), mk(1, 1, 3, 2),
			mk(1, 2, 2, 7), mk(2, 2, 2, 1), mk(2, 2, 2, 4),
			mk(2, 1, 3, 9), mk(1, 2, 2, 3),
		},
	}
}

func TestTableEqualAndDiff(t *testing.T) {
	a, b := smallTable(), smallTable()
	// Same multiset, different order.
	b.Rows[0], b.Rows[3] = b.Rows[3], b.Rows[0]
	if !a.Equal(b) {
		t.Error("order must not matter")
	}
	b.Rows[0][3] = relop.IntVal(999)
	if a.Equal(b) {
		t.Error("changed value should differ")
	}
	if a.Diff(b) == "" {
		t.Error("Diff should describe the mismatch")
	}
	if a.Diff(a) != "" {
		t.Error("Diff of equal tables should be empty")
	}
	// Same rows under an aliased column: Diff names both schemas.
	c := smallTable()
	c.Schema = slices.Clone(c.Schema)
	c.Schema[0].Name = "X"
	if d := a.Diff(c); !strings.Contains(d, "columns "+a.Schema.String()) || !strings.Contains(d, c.Schema.String()) {
		t.Errorf("Diff under an alias = %q, want both schemas", d)
	}
}

// buildAndRunPipeline assembles a hand-built physical plan:
// Extract → Sort(B,A,C) → StreamAgg local → Repartition{B} merge →
// StreamAgg global → Output, and runs it.
func TestHandBuiltPipelineMatchesReference(t *testing.T) {
	fs := NewFileStore()
	fs.Put("t.log", smallTable())
	c := testCluster(t, 3, fs)

	schema := smallTable().Schema
	aggSchema := relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt},
		{Name: "C", Type: relop.TInt}, {Name: "S", Type: relop.TInt},
	}
	sum := []relop.Aggregate{{Func: relop.AggSum, Arg: "D", As: "S"}}
	merge := []relop.Aggregate{{Func: relop.AggSum, Arg: "S", As: "S"}}
	node := func(op relop.Operator, schema relop.Schema, children ...*plan.Node) *plan.Node {
		return &plan.Node{Op: op, Children: children, Schema: schema, CtxKey: "x"}
	}
	p := node(&relop.PhysOutput{Path: "o.out"}, aggSchema,
		node(&relop.StreamAgg{Keys: []string{"A", "B", "C"}, Aggs: merge, Phase: relop.AggGlobal}, aggSchema,
			node(&relop.Repartition{To: props.HashPartitioning(props.NewColSet("B")), MergeOrder: props.NewOrdering("B", "A", "C")}, aggSchema,
				node(&relop.StreamAgg{Keys: []string{"A", "B", "C"}, Aggs: sum, Phase: relop.AggLocal}, aggSchema,
					node(&relop.Sort{Order: props.NewOrdering("B", "A", "C")}, schema,
						node(&relop.PhysExtract{Path: "t.log", Columns: schema}, schema))))))

	outs, err := c.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	got := outs["o.out"]
	want := &Table{Schema: aggSchema, Rows: []relop.Row{
		{relop.IntVal(1), relop.IntVal(1), relop.IntVal(1), relop.IntVal(15)},
		{relop.IntVal(1), relop.IntVal(1), relop.IntVal(3), relop.IntVal(2)},
		{relop.IntVal(1), relop.IntVal(2), relop.IntVal(2), relop.IntVal(10)},
		{relop.IntVal(2), relop.IntVal(2), relop.IntVal(2), relop.IntVal(5)},
		{relop.IntVal(2), relop.IntVal(1), relop.IntVal(3), relop.IntVal(9)},
	}}
	if !got.Equal(want) {
		t.Errorf("pipeline result wrong: %s", got.Diff(want))
	}
	m := c.Metrics()
	if m.Exchanges != 1 || m.NetBytes == 0 || m.DiskBytesRead == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestStreamAggValidatesClustering(t *testing.T) {
	fs := NewFileStore()
	fs.Put("t.log", smallTable())
	c := testCluster(t, 1, fs)
	schema := smallTable().Schema
	p := &plan.Node{
		Op:     &relop.StreamAgg{Keys: []string{"A", "B", "C"}, Aggs: []relop.Aggregate{{Func: relop.AggSum, Arg: "D", As: "S"}}},
		Schema: schema,
		Children: []*plan.Node{{
			Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema,
		}},
	}
	if _, err := c.Run(p); err == nil || !strings.Contains(err.Error(), "not clustered") {
		t.Errorf("unsorted stream agg should fail validation, got %v", err)
	}
}

func TestGlobalAggValidatesColocation(t *testing.T) {
	fs := NewFileStore()
	fs.Put("t.log", smallTable())
	c := testCluster(t, 3, fs)
	schema := smallTable().Schema
	// Global hash agg over round-robin partitions: keys span
	// machines — must be caught.
	p := &plan.Node{
		Op:     &relop.HashAgg{Keys: []string{"A"}, Aggs: []relop.Aggregate{{Func: relop.AggSum, Arg: "D", As: "S"}}, Phase: relop.AggGlobal},
		Schema: relop.Schema{{Name: "A", Type: relop.TInt}, {Name: "S", Type: relop.TInt}},
		Children: []*plan.Node{{
			Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema,
		}},
	}
	if _, err := c.Run(p); err == nil || !strings.Contains(err.Error(), "not colocated") {
		t.Errorf("non-colocated global agg should fail validation, got %v", err)
	}
}

func TestRepartitionVariants(t *testing.T) {
	fs := NewFileStore()
	fs.Put("t.log", smallTable())
	schema := smallTable().Schema
	extract := &plan.Node{Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema}

	// Serial: everything on machine 0.
	c := testCluster(t, 4, fs)
	p := &plan.Node{Op: &relop.Repartition{To: props.SerialPartitioning()}, Schema: schema, Children: []*plan.Node{extract}}
	out := mustRunRaw(t, c, p)
	if out.partRows(0) != 8 || out.partRows(1) != 0 {
		t.Errorf("serial parts = %d, %d", out.partRows(0), out.partRows(1))
	}

	// Broadcast: everything everywhere.
	c.Reset()
	p = &plan.Node{Op: &relop.Repartition{To: props.BroadcastPartitioning()}, Schema: schema, Children: []*plan.Node{extract}}
	out = mustRunRaw(t, c, p)
	for m := range out.parts {
		if out.partRows(m) != 8 {
			t.Errorf("broadcast machine %d has %d rows", m, out.partRows(m))
		}
	}
	if c.Metrics().NetBytes != smallTable().Bytes()*4 {
		t.Errorf("broadcast net bytes = %d", c.Metrics().NetBytes)
	}

	// Hash: rows with the same key land together.
	c.Reset()
	p = &plan.Node{Op: &relop.Repartition{To: props.HashPartitioning(props.NewColSet("B"))}, Schema: schema, Children: []*plan.Node{extract}}
	out = mustRunRaw(t, c, p)
	where := map[string]int{}
	for m, part := range partsOf(out) {
		for _, row := range part {
			k := row[1].String()
			if prev, ok := where[k]; ok && prev != m {
				t.Fatalf("key B=%s on machines %d and %d", k, prev, m)
			}
			where[k] = m
		}
	}
}

// partsOf materializes every partition of a result to rows.
func partsOf(p *pdata) [][]relop.Row {
	out := make([][]relop.Row, len(p.parts))
	for m, c := range p.parts {
		if c != nil {
			out[m] = c.materialize()
		}
	}
	return out
}

// mustRunRaw executes a row-producing plan directly (no output node).
func mustRunRaw(t *testing.T, c *Cluster, p *plan.Node) *pdata {
	t.Helper()
	r, finish := c.newRunner(context.Background())
	defer finish()
	out, err := r.exec(p, r.span)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSpoolMaterializedOnce(t *testing.T) {
	fs := NewFileStore()
	fs.Put("t.log", smallTable())
	c := testCluster(t, 2, fs)
	schema := smallTable().Schema
	extract := &plan.Node{Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema}
	spool := &plan.Node{Op: &relop.PhysSpool{}, Schema: schema, Group: 5, CtxKey: "p", Children: []*plan.Node{extract}}
	out1 := &plan.Node{Op: &relop.PhysOutput{Path: "o1"}, Schema: schema, Children: []*plan.Node{spool}}
	out2 := &plan.Node{Op: &relop.PhysOutput{Path: "o2"}, Schema: schema, Children: []*plan.Node{spool}}
	seq := &plan.Node{Op: &relop.PhysSequence{}, Children: []*plan.Node{out1, out2}}
	outs, err := c.Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !outs["o1"].Equal(outs["o2"]) {
		t.Error("both outputs should be identical")
	}
	m := c.Metrics()
	if m.SpoolMaterializations != 1 || m.SpoolReads != 2 {
		t.Errorf("spool metrics = %+v", m)
	}
}

func TestReferenceInterpreter(t *testing.T) {
	fs := NewFileStore()
	fs.Put("test.log", smallTable())
	src := `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
`
	m, err := logical.BuildSource(src, stats.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := Reference(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	r1 := outs["result1.out"]
	if r1 == nil {
		t.Fatal("missing result1.out")
	}
	// Check one aggregate by hand: A=1,B=1 → S over groups (1,1,1)=15
	// and (1,1,3)=2 → S1=17.
	found := false
	for _, row := range r1.Rows {
		if row[0].I == 1 && row[1].I == 1 {
			found = true
			if row[2].I != 17 {
				t.Errorf("S1(A=1,B=1) = %v, want 17", row[2])
			}
		}
	}
	if !found {
		t.Error("group A=1,B=1 missing")
	}
	r2 := outs["result2.out"]
	if r2 == nil || len(r2.Rows) == 0 {
		t.Fatal("missing result2.out")
	}
}

func TestReferenceJoinAndFilter(t *testing.T) {
	fs := NewFileStore()
	fs.Put("test.log", smallTable())
	src := `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,C,Sum(S) as S1 FROM R GROUP BY B,C;
R2 = SELECT B,A,Sum(S) as S2 FROM R GROUP BY B,A;
RR = SELECT R1.B,A,C,S1,S2 FROM R1,R2 WHERE R1.B=R2.B AND S1 > 0;
OUTPUT RR TO "rr.out";
`
	m, err := logical.BuildSource(src, stats.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := Reference(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	rr := outs["rr.out"]
	if rr == nil || len(rr.Rows) == 0 {
		t.Fatalf("join output empty")
	}
	// Every output row must satisfy the join predicate B = B2... the
	// B column appears once (qualified projection); check S1 > 0.
	for _, row := range rr.Rows {
		if row[3].I <= 0 {
			t.Errorf("filter leaked row %v", row)
		}
	}
}
