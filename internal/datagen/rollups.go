package datagen

import (
	"repro/internal/exec"
	"repro/internal/relop"
	"repro/internal/stats"
)

// The rollup scripts share one aggregation over test.log, R = (A, B,
// C, Sum(D)), each with its own consumers and outputs. RollupA reads R
// twice, so its plan spools R (the admission candidate); RollupB and
// RollupC read it once each, so a warm cache serves them.
const (
	RollupA = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "a1.out" ORDER BY A, B;
OUTPUT R2 TO "a2.out" ORDER BY B, C;
`
	RollupB = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R3 = SELECT A,C,Sum(S) as S3 FROM R GROUP BY A,C;
OUTPUT R3 TO "b3.out" ORDER BY A, C;
`
	RollupC = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R4 = SELECT B,Sum(S) as S4 FROM R GROUP BY B;
OUTPUT R4 TO "c4.out" ORDER BY B;
`
)

// RollupTable is the rollup scripts' test.log: 400 rows whose A, B and
// C cycle through 7, 5 and 11 values, with measure D = 13·i + shift.
func RollupTable(shift int64) *exec.Table {
	t := &exec.Table{Schema: relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt},
		{Name: "C", Type: relop.TInt}, {Name: "D", Type: relop.TInt},
	}}
	for i := int64(0); i < 400; i++ {
		t.Rows = append(t.Rows, relop.Row{relop.IntVal(i % 7), relop.IntVal(i % 5), relop.IntVal(i % 11), relop.IntVal(i*13 + shift)})
	}
	return t
}

// Rollups is the rollup scripts' data: test.log as RollupTable(0),
// under statistics that price it as 2 billion rows.
func Rollups() *Workload {
	cat := stats.NewCatalog()
	CatalogFor(cat, "test.log", 400, []ColumnSpec{{"A", 100}, {"B", 50}, {"C", 200}, {"D", 1 << 40}}, 5_000_000)
	fs := exec.NewFileStore()
	fs.Put("test.log", RollupTable(0))
	return &Workload{Name: "rollups", FS: fs, Cat: cat}
}
