package share

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/relop"
	"repro/internal/stats"
)

// scriptDerived reads scriptA's cached R once and builds a second
// shared aggregate Y over it, plus an unrelated shared aggregate Z over
// another table. Z's spool commits first; under a small cache bound its
// admission evicts R before Y — derived from CacheScan(R) — commits.
const scriptDerived = `
Z0 = EXTRACT K,V FROM "other.log" USING LogExtractor;
Z = SELECT K,Sum(V) as T FROM Z0 GROUP BY K;
Z1 = SELECT K,T FROM Z WHERE K > 0;
Z2 = SELECT K,T FROM Z WHERE K < 3;
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
Y = SELECT A,B,Sum(S) as SY FROM R GROUP BY A,B;
Y1 = SELECT A,SY FROM Y WHERE A > 1;
Y2 = SELECT B,SY FROM Y WHERE B > 1;
OUTPUT Z1 TO "z1.out" ORDER BY K;
OUTPUT Z2 TO "z2.out" ORDER BY K;
OUTPUT Y1 TO "y1.out" ORDER BY A, SY;
OUTPUT Y2 TO "y2.out" ORDER BY B, SY;
`

// TestSessionDerivedArtifactKeepsProvenance: an artifact built over
// CacheScan(R) must record R's base-table sources even when R's entry
// is gone by the time the run settles. At the parent commit settle
// asked the cache for R's sources after the earlier commit of Z had
// evicted R, recorded none, and so a later write to test.log never
// invalidated Y: the next identical request read stale rows.
func TestSessionDerivedArtifactKeepsProvenance(t *testing.T) {
	cat, fs := testEnv(t)
	cat.Put("other.log", &stats.TableStats{Rows: 1 << 40, Columns: map[string]stats.ColumnStats{
		"K": {Distinct: 4, AvgBytes: 8},
		"V": {Distinct: 1 << 40, AvgBytes: 8},
	}})
	fs.Put("other.log", otherTable())
	s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, CacheBytes: 12350})
	if err != nil {
		t.Fatal(err)
	}
	repA, err := s.Run(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Admitted != 1 {
		t.Fatalf("script A admitted %d artifacts, want R alone", repA.Admitted)
	}
	rep, err := s.Run(scriptDerived)
	if err != nil {
		t.Fatal(err)
	}
	// The scenario: Y read R from the cache, and settling admitted Z
	// and Y while evicting R.
	if rep.CacheHits != 1 || rep.Admitted != 2 || rep.Evicted != 1 {
		t.Fatalf("derived run: hits=%d admitted=%d evicted=%d, want 1/2/1",
			rep.CacheHits, rep.Admitted, rep.Evicted)
	}

	fs.Put("test.log", datagen.RollupTable(1))
	again, err := s.Run(scriptDerived)
	if err != nil {
		t.Fatal(err)
	}
	// Only Z still serves; Y was built from the old test.log.
	if again.CacheHits != 1 {
		t.Errorf("rerun after the write hit %d artifacts, want 1 (Z only)", again.CacheHits)
	}
	m, err := logical.BuildSource(scriptDerived, cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Reference(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{"z1.out", "z2.out", "y1.out", "y2.out"} {
		if !again.Outputs[out].Equal(want[out]) {
			t.Errorf("%s differs from the reference", out)
		}
	}
}

// otherTable is a small four-key table for scriptDerived's Z branch.
func otherTable() *exec.Table {
	t := &exec.Table{Schema: relop.Schema{{Name: "K", Type: relop.TInt}, {Name: "V", Type: relop.TInt}}}
	for i := int64(0); i < 40; i++ {
		t.Rows = append(t.Rows, relop.Row{relop.IntVal(i % 4), relop.IntVal(i)})
	}
	return t
}
