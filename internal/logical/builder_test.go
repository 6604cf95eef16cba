package logical

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/memo"
	"repro/internal/relop"
	"repro/internal/stats"
)

const scriptS1 = datagen.ScriptS1

func build(t *testing.T, src string) *memo.Memo {
	t.Helper()
	m, err := BuildSource(src, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testCatalog() *stats.Catalog {
	cat := stats.NewCatalog()
	cat.Put("test.log", &stats.TableStats{
		Rows: 10_000_000,
		Columns: map[string]stats.ColumnStats{
			"A": {Distinct: 1000, AvgBytes: 8},
			"B": {Distinct: 100, AvgBytes: 8},
			"C": {Distinct: 5000, AvgBytes: 8},
			"D": {Distinct: 1_000_000, AvgBytes: 8},
		},
	})
	return cat
}

func TestBuildS1Shape(t *testing.T) {
	m := build(t, scriptS1)
	// Expected groups: Extract, GB(R), GB(R1), GB(R2), Out1, Out2, Seq = 7.
	if got := len(m.Groups()); got != 7 {
		t.Fatalf("groups = %d, want 7:\n%s", got, m)
	}
	root := m.Group(m.Root)
	if root.Exprs[0].Op.Kind() != relop.KindSequence {
		t.Fatalf("root = %v", root.Exprs[0].Op)
	}
	// The shared GB(R) group must have two parents (explicit CSE).
	var gbR memo.GroupID = memo.NoGroup
	for _, g := range m.Groups() {
		if gb, ok := g.Exprs[0].Op.(*relop.GroupBy); ok && len(gb.Keys) == 3 {
			gbR = g.ID
		}
	}
	if gbR == memo.NoGroup {
		t.Fatal("GB(A,B,C) group not found")
	}
	if ps := m.Parents(gbR); len(ps) != 2 {
		t.Errorf("GB(R) parents = %v, want 2 consumers", ps)
	}
}

func TestBuildS1SchemasAndStats(t *testing.T) {
	m := build(t, scriptS1)
	for _, g := range m.Groups() {
		if gb, ok := g.Exprs[0].Op.(*relop.GroupBy); ok && len(gb.Keys) == 3 {
			if got := g.Props.Schema.String(); got != "(A int, B int, C int, S int)" {
				t.Errorf("GB(R) schema = %s", got)
			}
			if g.Props.Rel.Rows <= 0 || g.Props.Rel.Rows > 10_000_000 {
				t.Errorf("GB(R) rows = %d", g.Props.Rel.Rows)
			}
		}
	}
}

func TestBuildExtractTypesAndFileIDs(t *testing.T) {
	m := build(t, `
A1 = EXTRACT X:string, Y:float, Z FROM "f1" USING E;
A2 = EXTRACT X FROM "f2" USING E;
A3 = EXTRACT X FROM "f1" USING E;
B1 = SELECT X, Count() as N FROM A1 GROUP BY X;
OUTPUT B1 TO "o";
`)
	var f1, f2, f1b int
	for _, g := range m.Groups() {
		if ex, ok := g.Exprs[0].Op.(*relop.Extract); ok {
			switch {
			case ex.Path == "f1" && len(ex.Columns) == 3:
				f1 = ex.FileID
				if ex.Columns[0].Type != relop.TString || ex.Columns[1].Type != relop.TFloat || ex.Columns[2].Type != relop.TInt {
					t.Errorf("extract types = %v", ex.Columns)
				}
			case ex.Path == "f2":
				f2 = ex.FileID
			case ex.Path == "f1":
				f1b = ex.FileID
			}
		}
	}
	if f1 == 0 || f2 == 0 || f1b == 0 {
		t.Fatal("missing extracts")
	}
	if f1 == f2 {
		t.Error("different files must get different FileIDs")
	}
	if f1 != f1b {
		t.Error("same file must get the same FileID")
	}
}

func TestBuildJoinWithQualifiedAndRenamedColumns(t *testing.T) {
	// S3-style join: both sides expose B, so the right side must be
	// renamed and R1.B must resolve to the left's physical column.
	m := build(t, `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,C,Sum(S) as S1 FROM R GROUP BY B,C;
R2 = SELECT B,A,Sum(S) as S2 FROM R GROUP BY B,A;
RR = SELECT R1.B,A,C,S1,S2 FROM R1,R2 WHERE R1.B=R2.B;
OUTPUT RR TO "result1.out";
`)
	var join *relop.Join
	var joinGroup *memo.Group
	for _, g := range m.Groups() {
		if j, ok := g.Exprs[0].Op.(*relop.Join); ok {
			join = j
			joinGroup = g
		}
	}
	if join == nil {
		t.Fatal("no join group")
	}
	if join.LeftKeys[0] != "B" || !strings.HasPrefix(join.RightKeys[0], "B$") {
		t.Errorf("join keys = %v = %v", join.LeftKeys, join.RightKeys)
	}
	// Join output schema must have unique names.
	names := map[string]bool{}
	for _, c := range joinGroup.Props.Schema {
		if names[c.Name] {
			t.Errorf("duplicate column %q in join schema", c.Name)
		}
		names[c.Name] = true
	}
	// Root is the single Output (no Sequence for one output).
	if m.Group(m.Root).Exprs[0].Op.Kind() != relop.KindOutput {
		t.Errorf("root = %v", m.Group(m.Root).Exprs[0].Op)
	}
}

func TestBuildFilterSelectivity(t *testing.T) {
	m := build(t, `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A, B FROM R0 WHERE B = 5 AND A > 2;
OUTPUT R TO "o";
`)
	var f *relop.Filter
	var fg *memo.Group
	for _, g := range m.Groups() {
		if x, ok := g.Exprs[0].Op.(*relop.Filter); ok {
			f = x
			fg = g
		}
	}
	if f == nil {
		t.Fatal("no filter group")
	}
	// equality on B (100 distinct) = 0.01, inequality default 0.25.
	want := 0.01 * 0.25
	if diff := f.Selectivity - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("selectivity = %v, want %v", f.Selectivity, want)
	}
	if fg.Props.Rel.Rows != int64(float64(10_000_000)*want) {
		t.Errorf("filter rows = %d", fg.Props.Rel.Rows)
	}
}

func TestBuildGroupByProjectionWrap(t *testing.T) {
	// SELECT order differs from keys-then-aggs: a Project must wrap.
	m := build(t, `
R0 = EXTRACT A,B,D FROM "test.log" USING LogExtractor;
R = SELECT Sum(D) as S, B FROM R0 GROUP BY B;
OUTPUT R TO "o";
`)
	foundProject := false
	for _, g := range m.Groups() {
		if p, ok := g.Exprs[0].Op.(*relop.Project); ok {
			foundProject = true
			if g.Props.Schema[0].Name != "S" || g.Props.Schema[1].Name != "B" {
				t.Errorf("projected schema = %v", g.Props.Schema)
			}
			_ = p
		}
	}
	if !foundProject {
		t.Error("reordered select list should add a Project")
	}
	// Canonical order should NOT add a Project.
	m2 := build(t, `
R0 = EXTRACT A,B,D FROM "test.log" USING LogExtractor;
R = SELECT B, Sum(D) as S FROM R0 GROUP BY B;
OUTPUT R TO "o";
`)
	for _, g := range m2.Groups() {
		if _, ok := g.Exprs[0].Op.(*relop.Project); ok {
			t.Error("canonical select list should not add a Project")
		}
	}
}

func TestBuildScalarProject(t *testing.T) {
	m := build(t, `
R0 = EXTRACT A,B FROM "test.log" USING LogExtractor;
R = SELECT A, A+B as AB, 2*B as B2 FROM R0;
OUTPUT R TO "o";
`)
	var p *relop.Project
	for _, g := range m.Groups() {
		if x, ok := g.Exprs[0].Op.(*relop.Project); ok {
			p = x
		}
	}
	if p == nil {
		t.Fatal("no project")
	}
	if len(p.Items) != 3 || p.Items[1].As != "AB" {
		t.Errorf("project items = %v", p.Items)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`OUTPUT R TO "o";`, "undefined result"},
		{`R = SELECT A FROM X; OUTPUT R TO "o";`, "unknown source"},
		{`R = EXTRACT A FROM "f" USING E; R = EXTRACT A FROM "f" USING E; OUTPUT R TO "o";`, "reassigned"},
		{`R = EXTRACT A,A FROM "f" USING E; OUTPUT R TO "o";`, "duplicate column"},
		{`R0 = EXTRACT A FROM "f" USING E; R = SELECT Z FROM R0; OUTPUT R TO "o";`, "unknown column"},
		{`R0 = EXTRACT A,B FROM "f" USING E; R = SELECT A, Sum(B) as S FROM R0 GROUP BY A, A;`, "duplicate grouping key"},
		{`R0 = EXTRACT A,B FROM "f" USING E; R = SELECT B, Sum(A) as S FROM R0 GROUP BY A; OUTPUT R TO "o";`, "neither aggregated nor in GROUP BY"},
		{`R0 = EXTRACT A,B FROM "f" USING E; R = SELECT A, Sum(B) FROM R0 GROUP BY A; OUTPUT R TO "o";`, "needs an AS alias"},
		{`R0 = EXTRACT A,B FROM "f" USING E; R = SELECT A, Sum(A+B) as S FROM R0 GROUP BY A; OUTPUT R TO "o";`, "must be a column"},
		{`R0 = EXTRACT A FROM "f" USING E; R = SELECT Sum(A) as S FROM R0; OUTPUT R TO "o";`, "requires GROUP BY"},
		{`R0 = EXTRACT A FROM "f" USING E; R = SELECT A FROM R0, R0; OUTPUT R TO "o";`, "listed twice"},
		{`X = EXTRACT A FROM "f" USING E; Y = EXTRACT A FROM "g" USING E; R = SELECT X.A FROM X, Y; OUTPUT R TO "o";`, "equality predicate"},
		{`X = EXTRACT A FROM "f" USING E; Y = EXTRACT A FROM "g" USING E; R = SELECT A FROM X, Y WHERE X.A = Y.A; OUTPUT R TO "o";`, "ambiguous"},
		{`X = EXTRACT A FROM "f" USING E; R = SELECT A+1 FROM X; OUTPUT R TO "o";`, "needs an AS alias"},
		{`X = EXTRACT A,B FROM "f" USING E; R = SELECT A as Z, B as Z FROM X; OUTPUT R TO "o";`, "duplicate output column"},
		{`X = EXTRACT A FROM "f" USING E;`, "no OUTPUT"},
		{`X = EXTRACT A FROM "f" USING E; R = SELECT Foo(A) as Z FROM X; OUTPUT R TO "o";`, "not allowed here"},
		{`X = EXTRACT A,B FROM "f" USING E; R = SELECT A, Count(A, B) as N FROM X GROUP BY A; OUTPUT R TO "o";`, "exactly one column"},
	}
	for _, c := range cases {
		_, err := BuildSource(c.src, nil)
		if err == nil {
			t.Errorf("BuildSource(%q) should fail with %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("BuildSource(%q) error = %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestBuildThreeWayJoin(t *testing.T) {
	m := build(t, `
X = EXTRACT K,V1 FROM "f1" USING E;
Y = EXTRACT K,V2 FROM "f2" USING E;
Z = EXTRACT K,V3 FROM "f3" USING E;
R = SELECT X.K, V1, V2, V3 FROM X, Y, Z WHERE X.K = Y.K AND Y.K = Z.K;
OUTPUT R TO "o";
`)
	joins := 0
	for _, g := range m.Groups() {
		if _, ok := g.Exprs[0].Op.(*relop.Join); ok {
			joins++
		}
	}
	if joins != 2 {
		t.Errorf("three-way join should build 2 join groups, got %d", joins)
	}
}

func TestBuildCountQuery(t *testing.T) {
	m := build(t, `
R0 = EXTRACT A FROM "test.log" USING LogExtractor;
R = SELECT A, Count() as N FROM R0 GROUP BY A;
OUTPUT R TO "o";
`)
	for _, g := range m.Groups() {
		if gb, ok := g.Exprs[0].Op.(*relop.GroupBy); ok {
			if gb.Aggs[0].Func != relop.AggCount || gb.Aggs[0].Arg != "" {
				t.Errorf("count agg = %+v", gb.Aggs[0])
			}
		}
	}
}
