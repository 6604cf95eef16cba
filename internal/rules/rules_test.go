package rules

import (
	"testing"

	"repro/internal/memo"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

func testMemo() (*memo.Memo, *memo.Group) {
	m := memo.New()
	schema := relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt},
		{Name: "C", Type: relop.TInt}, {Name: "D", Type: relop.TInt},
	}
	ex := m.Insert(&relop.Extract{Path: "t", Columns: schema, FileID: 1}, nil,
		memo.LogicalProps{Schema: schema, Rel: stats.Relation{Rows: 1_000_000, RowBytes: 32,
			Distinct: map[string]int64{"A": 100, "B": 10, "C": 500}}})
	gbOp := &relop.GroupBy{
		Keys: []string{"A", "B", "C"},
		Aggs: []relop.Aggregate{{Func: relop.AggSum, Arg: "D", As: "S"}},
	}
	outSchema := relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt},
		{Name: "C", Type: relop.TInt}, {Name: "S", Type: relop.TInt},
	}
	gid := m.Insert(gbOp, []memo.GroupID{ex},
		memo.LogicalProps{Schema: outSchema, Rel: stats.Relation{Rows: 50_000, RowBytes: 32,
			Distinct: map[string]int64{"A": 100, "B": 10, "C": 500}}})
	m.Root = gid
	return m, m.Group(gid)
}

// testMachines is the costed cluster size the tests explore under.
const testMachines = 100

func TestExploreSplitsGroupBy(t *testing.T) {
	m, g := testMemo()
	before := m.NumGroups()
	Explore(m, g, DefaultConfig(), testMachines)
	if len(g.Exprs) != 2 {
		t.Fatalf("exprs after explore = %d, want 2 (single + global)", len(g.Exprs))
	}
	global := g.Exprs[1].Op.(*relop.GroupBy)
	if global.Phase != relop.AggGlobal {
		t.Errorf("second expr phase = %v", global.Phase)
	}
	localG := m.Group(g.Exprs[1].Children[0])
	local := localG.Exprs[0].Op.(*relop.GroupBy)
	if local.Phase != relop.AggLocal {
		t.Errorf("local phase = %v", local.Phase)
	}
	// Merge aggregates: Sum merges by Sum over the partial column.
	if global.Aggs[0].Func != relop.AggSum || global.Aggs[0].Arg != "S" {
		t.Errorf("merge agg = %+v", global.Aggs[0])
	}
	// Local output estimate is bounded by the input and exceeds the
	// final group count.
	if localG.Props.Rel.Rows < 50_000 || localG.Props.Rel.Rows > 1_000_000 {
		t.Errorf("local rows = %d", localG.Props.Rel.Rows)
	}
	// One helper group (the Local half) was added; a second Explore
	// must not add anything.
	if m.NumGroups() != before+1 {
		t.Errorf("groups after explore = %d, want %d", m.NumGroups(), before+1)
	}
	Explore(m, g, DefaultConfig(), testMachines)
	if len(g.Exprs) != 2 || m.NumGroups() != before+1 {
		t.Errorf("explore not idempotent: exprs=%d groups=%d", len(g.Exprs), m.NumGroups())
	}
}

func TestExploreSkipsAvg(t *testing.T) {
	m := memo.New()
	schema := relop.Schema{{Name: "A", Type: relop.TInt}, {Name: "D", Type: relop.TInt}}
	ex := m.Insert(&relop.Extract{Path: "t", Columns: schema, FileID: 1}, nil,
		memo.LogicalProps{Schema: schema, Rel: stats.Relation{Rows: 100, RowBytes: 16}})
	gid := m.Insert(&relop.GroupBy{
		Keys: []string{"A"},
		Aggs: []relop.Aggregate{{Func: relop.AggAvg, Arg: "D", As: "V"}},
	}, []memo.GroupID{ex}, memo.LogicalProps{Rel: stats.Relation{Rows: 10, RowBytes: 16}})
	g := m.Group(gid)
	Explore(m, g, DefaultConfig(), testMachines)
	if len(g.Exprs) != 1 {
		t.Errorf("Avg must not split: exprs = %d", len(g.Exprs))
	}
}

func TestImplementGroupByAlternatives(t *testing.T) {
	m, g := testMemo()
	alts := Implement(m, g, g.Exprs[0], props.AnyRequired(), DefaultConfig())
	var streams, hashes int
	for _, a := range alts {
		switch op := a.Op.(type) {
		case *relop.StreamAgg:
			streams++
			if a.ChildReqs[0].Part.Kind != props.PartHash {
				t.Errorf("stream agg child partition = %v", a.ChildReqs[0].Part)
			}
			if !a.ChildReqs[0].Order.HasPrefixSet(props.NewColSet("A", "B", "C")) {
				t.Errorf("stream agg order %v does not cluster keys", a.ChildReqs[0].Order)
			}
			_ = op
		case *relop.HashAgg:
			hashes++
			if !a.ChildReqs[0].Order.Empty() {
				t.Error("hash agg must not require order")
			}
		}
	}
	if streams < 2 || hashes != 1 {
		t.Errorf("streams=%d hashes=%d", streams, hashes)
	}
}

func TestImplementGroupByAlignsWithRequiredOrder(t *testing.T) {
	m, g := testMemo()
	req := props.Required{Order: props.NewOrdering("B", "A")}
	alts := Implement(m, g, g.Exprs[0], req, DefaultConfig())
	first := alts[0]
	if _, ok := first.Op.(*relop.StreamAgg); !ok {
		t.Fatalf("first alt = %T", first.Op)
	}
	// The first stream candidate must start with the required order.
	if !first.ChildReqs[0].Order.Satisfies(props.NewOrdering("B", "A")) {
		t.Errorf("first candidate order = %v, want (B,A,...) alignment", first.ChildReqs[0].Order)
	}
}

func TestImplementLocalAggNoPartitionReq(t *testing.T) {
	m, g := testMemo()
	Explore(m, g, DefaultConfig(), testMachines)
	localG := m.Group(g.Exprs[1].Children[0])
	alts := Implement(m, localG, localG.Exprs[0], props.AnyRequired(), DefaultConfig())
	for _, a := range alts {
		if a.ChildReqs[0].Part.Kind != props.PartAny {
			t.Errorf("local agg child partition = %v, want any", a.ChildReqs[0].Part)
		}
	}
}

func TestImplementJoinSchemes(t *testing.T) {
	m := memo.New()
	ls := relop.Schema{{Name: "B", Type: relop.TInt}, {Name: "S1", Type: relop.TInt}}
	rs := relop.Schema{{Name: "B2", Type: relop.TInt}, {Name: "S2", Type: relop.TInt}}
	l := m.Insert(&relop.Extract{Path: "l", Columns: ls, FileID: 1}, nil,
		memo.LogicalProps{Schema: ls, Rel: stats.Relation{Rows: 1000, RowBytes: 16}})
	r := m.Insert(&relop.Extract{Path: "r", Columns: rs, FileID: 2}, nil,
		memo.LogicalProps{Schema: rs, Rel: stats.Relation{Rows: 10, RowBytes: 16}})
	j := m.Insert(&relop.Join{LeftKeys: []string{"B"}, RightKeys: []string{"B2"}},
		[]memo.GroupID{l, r}, memo.LogicalProps{Schema: ls.Concat(rs), Rel: stats.Relation{Rows: 100, RowBytes: 32}})
	g := m.Group(j)
	alts := Implement(m, g, g.Exprs[0], props.AnyRequired(), DefaultConfig())
	var merge, hash, broadcast, serial int
	for _, a := range alts {
		switch a.Op.(type) {
		case *relop.SortMergeJoin:
			merge++
			// Both sides must request corresponding exact schemes.
			if a.ChildReqs[0].Part.Kind == props.PartHash {
				if !a.ChildReqs[0].Part.Exact || !a.ChildReqs[1].Part.Exact {
					t.Error("merge join hash schemes must be exact (co-partitioning)")
				}
			}
			if a.ChildReqs[0].Order.Empty() || a.ChildReqs[1].Order.Empty() {
				t.Error("merge join needs sorted inputs")
			}
		case *relop.HashJoin:
			hash++
			if a.ChildReqs[0].Part.Kind == props.PartBroadcast || a.ChildReqs[1].Part.Kind == props.PartBroadcast {
				broadcast++
				// The smaller side (right, 10 rows) must be the
				// broadcast one.
				if a.ChildReqs[1].Part.Kind != props.PartBroadcast {
					t.Error("broadcast side should be the smaller input")
				}
			}
		}
		if a.ChildReqs[0].Part.Kind == props.PartSerial {
			serial++
		}
	}
	if merge == 0 || hash == 0 || broadcast != 1 || serial == 0 {
		t.Errorf("merge=%d hash=%d broadcast=%d serial=%d", merge, hash, broadcast, serial)
	}
}

func TestDeriveDeliveredAgg(t *testing.T) {
	child := props.Delivered{
		Part:  props.HashPartitioning(props.NewColSet("B")),
		Order: props.NewOrdering("B", "A", "C"),
	}
	agg := &relop.StreamAgg{Keys: []string{"A", "B", "C"}, Phase: relop.AggGlobal}
	d := DeriveDelivered(agg, []props.Delivered{child})
	if !d.Part.Equal(child.Part) {
		t.Errorf("agg part = %v", d.Part)
	}
	if !d.Order.Equal(child.Order) {
		t.Errorf("agg order = %v", d.Order)
	}
	// Partitioning on a non-key column degrades.
	child2 := props.Delivered{Part: props.HashPartitioning(props.NewColSet("D"))}
	d2 := DeriveDelivered(agg, []props.Delivered{child2})
	if d2.Part.Kind != props.PartRandom {
		t.Errorf("non-key partition should degrade, got %v", d2.Part)
	}
	// HashAgg destroys order.
	h := DeriveDelivered(&relop.HashAgg{Keys: []string{"A", "B", "C"}}, []props.Delivered{child})
	if !h.Order.Empty() {
		t.Errorf("hash agg order = %v", h.Order)
	}
}

func TestDeriveDeliveredRepartitionAndSort(t *testing.T) {
	child := props.Delivered{Part: props.RandomPartitioning(), Order: props.NewOrdering("B", "A")}
	re := &relop.Repartition{To: props.HashPartitioning(props.NewColSet("B"))}
	d := DeriveDelivered(re, []props.Delivered{child})
	if d.Part.Kind != props.PartHash || !d.Order.Empty() {
		t.Errorf("plain repartition = %v", d)
	}
	rem := &relop.Repartition{To: props.HashPartitioning(props.NewColSet("B")), MergeOrder: props.NewOrdering("B", "A")}
	dm := DeriveDelivered(rem, []props.Delivered{child})
	if !dm.Order.Equal(props.NewOrdering("B", "A")) {
		t.Errorf("merge repartition order = %v", dm.Order)
	}
	s := DeriveDelivered(&relop.Sort{Order: props.NewOrdering("C")}, []props.Delivered{child})
	if !s.Order.Equal(props.NewOrdering("C")) || !s.Part.Equal(child.Part) {
		t.Errorf("sort delivered = %v", s)
	}
}

func TestDeriveDeliveredMergeJoinOrder(t *testing.T) {
	left := props.Delivered{
		Part:  props.HashPartitioning(props.NewColSet("B")),
		Order: props.NewOrdering("B", "A"),
	}
	j := &relop.SortMergeJoin{LeftKeys: []string{"B"}, RightKeys: []string{"B2"}}
	d := DeriveDelivered(j, []props.Delivered{left, {}})
	// Only the key prefix (B) survives.
	if !d.Order.Equal(props.NewOrdering("B")) {
		t.Errorf("merge join order = %v", d.Order)
	}
	if !d.Part.Equal(left.Part) {
		t.Errorf("merge join part = %v", d.Part)
	}
}

func TestDeriveDeliveredProjectRenames(t *testing.T) {
	items := []relop.NamedExpr{
		{Expr: relop.Col("B"), As: "B2"},
		{Expr: relop.Col("A"), As: "A"},
		{Expr: relop.Bin(relop.OpAdd, relop.Col("A"), relop.Col("B")), As: "AB"},
	}
	child := props.Delivered{
		Part:  props.HashPartitioning(props.NewColSet("B")),
		Order: props.NewOrdering("B", "A"),
	}
	d := DeriveDelivered(&relop.PhysProject{Items: items}, []props.Delivered{child})
	if !d.Part.Cols.Equal(props.NewColSet("B2")) {
		t.Errorf("renamed part = %v", d.Part)
	}
	if !d.Order.Equal(props.Ordering{{Col: "B2"}, {Col: "A"}}) {
		t.Errorf("renamed order = %v", d.Order)
	}
	// Partition column dropped → random.
	d2 := DeriveDelivered(&relop.PhysProject{Items: items[1:]}, []props.Delivered{child})
	if d2.Part.Kind != props.PartRandom {
		t.Errorf("dropped part col should degrade: %v", d2.Part)
	}
}

func TestMapReqThroughProject(t *testing.T) {
	items := []relop.NamedExpr{
		{Expr: relop.Col("B"), As: "B2"},
		{Expr: relop.Bin(relop.OpAdd, relop.Col("A"), relop.Col("B")), As: "AB"},
	}
	req := props.Required{Part: props.HashPartitioning(props.NewColSet("B2"))}
	mapped, ok := mapReqThroughProject(items, req)
	if !ok || !mapped.Part.Cols.Equal(props.NewColSet("B")) {
		t.Errorf("mapped = %v, %v", mapped, ok)
	}
	bad := props.Required{Part: props.HashPartitioning(props.NewColSet("AB"))}
	if _, ok := mapReqThroughProject(items, bad); ok {
		t.Error("computed column must block pushdown")
	}
}

func TestEnforcerTargets(t *testing.T) {
	cfg := DefaultConfig()
	ts := EnforcerTargets(props.HashPartitioning(props.NewColSet("A", "B", "C")), cfg)
	if len(ts) != 4 { // full + 3 singletons
		t.Fatalf("targets = %v", ts)
	}
	if !ts[0].Cols.Equal(props.NewColSet("A", "B", "C")) {
		t.Errorf("first target should be the full set: %v", ts[0])
	}
	exact := EnforcerTargets(props.ExactHashPartitioning(props.NewColSet("B")), cfg)
	if len(exact) != 1 || !exact[0].Cols.Equal(props.NewColSet("B")) {
		t.Errorf("exact targets = %v", exact)
	}
	ser := EnforcerTargets(props.SerialPartitioning(), cfg)
	if len(ser) != 1 || ser[0].Kind != props.PartSerial {
		t.Errorf("serial targets = %v", ser)
	}
	if got := EnforcerTargets(props.AnyPartitioning(), cfg); got != nil {
		t.Errorf("any targets = %v", got)
	}
}

func TestMergeProjectsRule(t *testing.T) {
	// Build P3(P2(P1(extract))) and explore with the merge rule on:
	// the top group gains a composed expression straight over the
	// extract.
	m := memo.New()
	schema := relop.Schema{{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt}}
	ex := m.Insert(&relop.Extract{Path: "t", Columns: schema, FileID: 1}, nil,
		memo.LogicalProps{Schema: schema, Rel: stats.Relation{Rows: 100, RowBytes: 16}})
	p1 := m.Insert(&relop.Project{Items: []relop.NamedExpr{
		{Expr: relop.Col("A"), As: "X"},
		{Expr: relop.Bin(relop.OpAdd, relop.Col("A"), relop.Col("B")), As: "Y"},
	}}, []memo.GroupID{ex}, memo.LogicalProps{Rel: stats.Relation{Rows: 100, RowBytes: 16}})
	p2 := m.Insert(&relop.Project{Items: []relop.NamedExpr{
		{Expr: relop.Bin(relop.OpMul, relop.Col("Y"), relop.Lit(relop.IntVal(2))), As: "Z"},
		{Expr: relop.Col("X"), As: "X"},
	}}, []memo.GroupID{p1}, memo.LogicalProps{Rel: stats.Relation{Rows: 100, RowBytes: 16}})
	p3 := m.Insert(&relop.Project{Items: []relop.NamedExpr{
		{Expr: relop.Col("Z"), As: "Out"},
	}}, []memo.GroupID{p2}, memo.LogicalProps{Rel: stats.Relation{Rows: 100, RowBytes: 8}})
	m.Root = p3

	cfg := DefaultConfig()
	cfg.EnableProjectMerge = true
	g := m.Group(p3)
	Explore(m, g, cfg, testMachines)
	if len(g.Exprs) != 2 {
		t.Fatalf("exprs = %d, want original + merged", len(g.Exprs))
	}
	merged := g.Exprs[1]
	if merged.Children[0] != ex {
		t.Errorf("merged child = G%d, want the extract G%d", merged.Children[0], ex)
	}
	mp := merged.Op.(*relop.Project)
	// Out = Z = Y*2 = (A+B)*2.
	if got := mp.Items[0].Expr.String(); got != "((A + B) * 2)" {
		t.Errorf("composed expr = %s", got)
	}
	// Off by default: no merge.
	g2 := m.Group(p2)
	Explore(m, g2, DefaultConfig(), testMachines)
	if len(g2.Exprs) != 1 {
		t.Errorf("merge must be off by default (exprs = %d)", len(g2.Exprs))
	}
	// Never merges through a shared group.
	m.Group(p1).Shared = true
	g2cfg := DefaultConfig()
	g2cfg.EnableProjectMerge = true
	Explore(m, g2, g2cfg, testMachines)
	if len(g2.Exprs) != 1 {
		t.Errorf("merge through a shared group must be blocked (exprs = %d)", len(g2.Exprs))
	}
}

func TestFilterPushdownRule(t *testing.T) {
	// Filter over a projection: pushed below with the predicate
	// inlined through the computed column.
	m := memo.New()
	schema := relop.Schema{{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt}}
	ex := m.Insert(&relop.Extract{Path: "t", Columns: schema, FileID: 1}, nil,
		memo.LogicalProps{Schema: schema, Rel: stats.Relation{Rows: 1000, RowBytes: 16}})
	proj := m.Insert(&relop.Project{Items: []relop.NamedExpr{
		{Expr: relop.Bin(relop.OpAdd, relop.Col("A"), relop.Col("B")), As: "S"},
	}}, []memo.GroupID{ex}, memo.LogicalProps{
		Schema: relop.Schema{{Name: "S", Type: relop.TInt}},
		Rel:    stats.Relation{Rows: 1000, RowBytes: 8},
	})
	filt := m.Insert(&relop.Filter{
		Pred:        relop.Bin(relop.OpGt, relop.Col("S"), relop.Lit(relop.IntVal(5))),
		Selectivity: 0.5,
	}, []memo.GroupID{proj}, memo.LogicalProps{
		Schema: relop.Schema{{Name: "S", Type: relop.TInt}},
		Rel:    stats.Relation{Rows: 500, RowBytes: 8},
	})
	m.Root = filt

	cfg := DefaultConfig()
	cfg.EnableFilterPushdown = true
	g := m.Group(filt)
	Explore(m, g, cfg, testMachines)
	if len(g.Exprs) != 2 {
		t.Fatalf("exprs = %d, want original + pushed", len(g.Exprs))
	}
	if _, ok := g.Exprs[1].Op.(*relop.Project); !ok {
		t.Fatalf("second expr = %T, want the projection on top", g.Exprs[1].Op)
	}
	newFilter := m.Group(g.Exprs[1].Children[0])
	nf, ok := newFilter.Exprs[0].Op.(*relop.Filter)
	if !ok {
		t.Fatalf("pushed child = %T, want Filter", newFilter.Exprs[0].Op)
	}
	if got := nf.Pred.String(); got != "((A + B) > 5)" {
		t.Errorf("inlined predicate = %s", got)
	}
	if newFilter.Exprs[0].Children[0] != ex {
		t.Error("pushed filter should sit directly over the extract")
	}
	// Off by default.
	gOff := m.Group(filt)
	before := len(gOff.Exprs)
	Explore(m, gOff, DefaultConfig(), testMachines)
	if len(gOff.Exprs) != before {
		t.Error("pushdown must be off by default")
	}
	// Blocked through shared groups.
	m.Group(proj).Shared = true
	Explore(m, g, cfg, testMachines)
	// (idempotence: the pushed expr already exists; no new ones)
	if len(g.Exprs) != 2 {
		t.Errorf("exprs after re-explore = %d", len(g.Exprs))
	}
}

// TestExploreLocalAggBoundedByMachines: the local aggregate's row
// estimate is one row per (group, machine) for the cluster size the
// caller passes, capped at the input's rows.
func TestExploreLocalAggBoundedByMachines(t *testing.T) {
	for _, c := range []struct {
		machines int
		want     int64
	}{
		{2, 100_000},      // 50,000 groups × 2 machines
		{8, 400_000},      // 50,000 groups × 8 machines
		{100, 1_000_000},  // capped at the 1,000,000 input rows
		{1000, 1_000_000}, // capped at the 1,000,000 input rows
	} {
		m, g := testMemo()
		Explore(m, g, DefaultConfig(), c.machines)
		if len(g.Exprs) != 2 {
			t.Fatalf("machines=%d: exprs after explore = %d, want 2", c.machines, len(g.Exprs))
		}
		local := m.Group(g.Exprs[1].Children[0])
		if got := local.Props.Rel.Rows; got != c.want {
			t.Errorf("machines=%d: local aggregate rows = %d, want %d", c.machines, got, c.want)
		}
	}
}
