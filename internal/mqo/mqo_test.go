package mqo

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/relop"
	"repro/internal/share"
	"repro/internal/stats"
)

func mqoCatalog() *stats.Catalog {
	cat := stats.NewCatalog()
	cat.Put("test.log", &stats.TableStats{Rows: 2_000_000_000, Columns: map[string]stats.ColumnStats{
		"A": {Distinct: 100, AvgBytes: 8},
		"B": {Distinct: 50, AvgBytes: 8},
		"C": {Distinct: 200, AvgBytes: 8},
		"D": {Distinct: 1 << 40, AvgBytes: 8},
	}})
	return cat
}

func mqoTable() *exec.Table {
	schema := relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt},
		{Name: "C", Type: relop.TInt}, {Name: "D", Type: relop.TInt},
	}
	t := &exec.Table{Schema: schema}
	for i := int64(0); i < 400; i++ {
		t.Rows = append(t.Rows, relop.Row{
			relop.IntVal(i % 7), relop.IntVal(i % 5),
			relop.IntVal(i % 11), relop.IntVal(i * 13),
		})
	}
	return t
}

// wlBuilder shares R within itself, so a local session would admit it
// naturally; wlOnceA/wlOnceB each consume the same R exactly once —
// invisible to per-script admission, gold for global selection.
const wlBuilder = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "a1.out" ORDER BY A, B;
OUTPUT R2 TO "a2.out" ORDER BY B, C;
`

const wlOnceA = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R3 = SELECT A,C,Sum(S) as S3 FROM R GROUP BY A,C;
OUTPUT R3 TO "b3.out" ORDER BY A, C;
`

const wlOnceB = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R4 = SELECT B,Sum(S) as S4 FROM R GROUP BY B;
OUTPUT R4 TO "c4.out" ORDER BY B;
`

// wlFiltA/wlFiltB share a second, independent subexpression (a
// different grouping over a filtered scan), giving selection a
// two-candidate DAG.
const wlFiltA = `
F0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
F = SELECT A,B,Sum(D) as FS FROM F0 WHERE A > 1 GROUP BY A,B;
FA = SELECT A,Sum(FS) as T FROM F GROUP BY A;
OUTPUT FA TO "fa.out" ORDER BY A;
`

const wlFiltB = `
F0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
F = SELECT A,B,Sum(D) as FS FROM F0 WHERE A > 1 GROUP BY A,B;
FB = SELECT B,Sum(FS) as T FROM F GROUP BY B;
OUTPUT FB TO "fb.out" ORDER BY B;
`

func buildTestDAG(t *testing.T, srcs ...string) *DAG {
	t.Helper()
	scripts := make([]Script, len(srcs))
	for i, s := range srcs {
		scripts[i] = Script{Name: string(rune('a' + i)), Src: s}
	}
	d, err := BuildDAG(scripts, mqoCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func groupByCandidates(d *DAG) []*MergedGroup {
	var out []*MergedGroup
	for _, c := range d.Candidates {
		if c.Kind == "GroupBy" {
			out = append(out, c)
		}
	}
	return out
}

// TestMergedDAGIdentityVariants: the Definition-1 identity merges
// semantically equivalent subexpressions across scripts — reordered
// projection lists, commuted conjuncts, renamed aliases and rowsets
// all land in ONE merged group (the PR 3 stability corpus, now at the
// workload level) — while near-miss variants stay separate.
func TestMergedDAGIdentityVariants(t *testing.T) {
	base := `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as S FROM R0 WHERE A > 1 AND B < 5 GROUP BY A,B;
OUTPUT R TO "o";
`
	equivalents := []string{
		base,
		`
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT B,A,Sum(D) as S FROM R0 WHERE A > 1 AND B < 5 GROUP BY A,B;
OUTPUT R TO "o";
`, // reordered projection
		`
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as S FROM R0 WHERE B < 5 AND A > 1 GROUP BY A,B;
OUTPUT R TO "o";
`, // commuted conjuncts
		`
Q0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
Q = SELECT A,B,Sum(D) as S FROM Q0 WHERE A > 1 AND B < 5 GROUP BY A,B;
OUTPUT Q TO "o";
`, // renamed rowset aliases (binder-internal names never leak)
	}
	nearMisses := []string{
		`
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as T FROM R0 WHERE A > 1 AND B < 5 GROUP BY A,B;
OUTPUT R TO "o";
`, // renamed aggregate output column: the artifact schema differs,
		// so sharing it would mislabel a column — must NOT merge
		`
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as S FROM R0 WHERE A > 2 AND B < 5 GROUP BY A,B;
OUTPUT R TO "o";
`, // different constant
		`
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,C,Sum(D) as S FROM R0 WHERE A > 1 AND B < 5 GROUP BY A,C;
OUTPUT R TO "o";
`, // different grouping keys
		`
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(C) as S FROM R0 WHERE A > 1 AND B < 5 GROUP BY A,B;
OUTPUT R TO "o";
`, // different aggregate input
	}

	d := buildTestDAG(t, append(equivalents, nearMisses...)...)

	// One GroupBy candidate must span exactly the five equivalent
	// scripts; no GroupBy group may mix an equivalent with a near-miss.
	nEquiv := len(equivalents)
	var span *MergedGroup
	for _, c := range groupByCandidates(d) {
		hasBase, hasMiss := false, false
		for _, s := range c.Scripts {
			if s < nEquiv {
				hasBase = true
			} else {
				hasMiss = true
			}
		}
		if hasBase && hasMiss {
			t.Errorf("merged group %s mixes equivalent and near-miss scripts: %v", c.Key, c.Scripts)
		}
		if hasBase && len(c.Scripts) == nEquiv {
			span = c
		}
	}
	if span == nil {
		t.Fatalf("no GroupBy candidate spans the %d equivalent scripts; candidates: %d",
			nEquiv, len(d.Candidates))
	}
	if !reflect.DeepEqual(span.Scripts, []int{0, 1, 2, 3}) {
		t.Errorf("equivalent scripts merged as %v, want [0 1 2 3]", span.Scripts)
	}

	// Near-miss GroupBys are their own (single-script) groups — they
	// never reach the candidate list.
	for _, c := range groupByCandidates(d) {
		for _, s := range c.Scripts {
			if s >= nEquiv && c == span {
				t.Errorf("near-miss script %d merged into the base group", s)
			}
		}
	}
}

// TestSelectGlobalBeatsPerScript: the workload where every script
// consumes the shared aggregation exactly once. The per-script
// baseline admits nothing (no local plan ever spools it), the global
// selection materializes it once for all consumers — strictly
// cheaper, which is exactly the ablation's headline case.
func TestSelectGlobalBeatsPerScript(t *testing.T) {
	d := buildTestDAG(t, wlOnceA, wlOnceB, wlBuilder)
	ev := NewEvaluator(d, opt.DefaultOptions())

	baseline, err := SelectPerScript(ev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	global, err := Select(ev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(global.Keys) == 0 {
		t.Fatal("global selection chose nothing")
	}
	if global.Total >= baseline.Total {
		t.Errorf("global %.2f not strictly below per-script %.2f", global.Total, baseline.Total)
	}
	if global.Total >= global.Base {
		t.Errorf("global %.2f not below its own base %.2f", global.Total, global.Base)
	}

	// On a workload of only single-consumer scripts, the baseline
	// must truly choose nothing.
	d2 := buildTestDAG(t, wlOnceA, wlOnceB)
	ev2 := NewEvaluator(d2, opt.DefaultOptions())
	b2, err := SelectPerScript(ev2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Keys) != 0 {
		t.Errorf("per-script baseline admitted %d keys without any local spool", len(b2.Keys))
	}
	g2, err := Select(ev2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Total >= b2.Total {
		t.Errorf("two single-consumer scripts: global %.2f not below baseline %.2f", g2.Total, b2.Total)
	}
}

// TestSelectGreedyMatchesOracle: on a small two-candidate DAG the
// lazy greedy selection must agree with the exhaustive oracle — same
// chosen set, same total — at several budget levels.
func TestSelectGreedyMatchesOracle(t *testing.T) {
	d := buildTestDAG(t, wlBuilder, wlOnceA, wlFiltA, wlFiltB)
	if len(d.Candidates) < 2 {
		t.Fatalf("workload produced %d candidates, want >= 2", len(d.Candidates))
	}
	ev := NewEvaluator(d, opt.DefaultOptions())

	var allBytes int64
	for _, c := range d.Candidates {
		allBytes += c.Bytes()
	}
	budgets := []int64{0, allBytes, allBytes / 2, 1}
	for _, budget := range budgets {
		cfg := Config{Budget: budget}
		g, err := SelectGreedy(ev, cfg)
		if err != nil {
			t.Fatalf("budget %d: greedy: %v", budget, err)
		}
		o, err := SelectExhaustive(ev, cfg)
		if err != nil {
			t.Fatalf("budget %d: oracle: %v", budget, err)
		}
		if o.Total > g.Total {
			t.Errorf("budget %d: oracle %.2f above greedy %.2f (oracle must be optimal)",
				budget, o.Total, g.Total)
		}
		if !reflect.DeepEqual(g.Keys, o.Keys) {
			t.Errorf("budget %d: greedy chose %v, oracle %v", budget, g.Keys, o.Keys)
		}
		if g.Total != o.Total {
			t.Errorf("budget %d: greedy total %.4f, oracle %.4f", budget, g.Total, o.Total)
		}
	}
}

// TestSelectionRespectsBudget: chosen bytes never exceed the budget,
// and a budget below every candidate forces the empty selection.
func TestSelectionRespectsBudget(t *testing.T) {
	d := buildTestDAG(t, wlBuilder, wlOnceA, wlFiltA, wlFiltB)
	ev := NewEvaluator(d, opt.DefaultOptions())

	unlimited, err := Select(ev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.Bytes == 0 || len(unlimited.Keys) == 0 {
		t.Fatalf("unlimited selection empty: %+v", unlimited)
	}

	for _, budget := range []int64{1, unlimited.Bytes - 1, unlimited.Bytes} {
		sel, err := Select(ev, Config{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if sel.Bytes > budget {
			t.Errorf("budget %d: selection uses %d bytes", budget, sel.Bytes)
		}
	}
	empty, err := Select(ev, Config{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Keys) != 0 {
		t.Errorf("1-byte budget still chose %d keys", len(empty.Keys))
	}
	if empty.Total != empty.Base {
		t.Errorf("empty selection total %.2f differs from base %.2f", empty.Total, empty.Base)
	}
}

// TestSelectionDeterministicAcrossWorkers: the selection is
// bit-identical at every seeding width — benefits are pure functions
// gathered by candidate index, and the evaluator's memo is just a
// cache. The check.sh mqo race leg runs this under -race.
func TestSelectionDeterministicAcrossWorkers(t *testing.T) {
	var ref *Selection
	for _, workers := range []int{1, 2, 4} {
		d := buildTestDAG(t, wlBuilder, wlOnceA, wlOnceB, wlFiltA, wlFiltB)
		ev := NewEvaluator(d, opt.DefaultOptions())
		sel, err := Select(ev, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = sel
			continue
		}
		if !reflect.DeepEqual(sel.Keys, ref.Keys) {
			t.Errorf("workers=%d chose %v, workers=1 chose %v", workers, sel.Keys, ref.Keys)
		}
		if sel.Total != ref.Total || sel.Bytes != ref.Bytes {
			t.Errorf("workers=%d total/bytes %.4f/%d, workers=1 %.4f/%d",
				workers, sel.Total, sel.Bytes, ref.Total, ref.Bytes)
		}
	}
}

// TestEnactBitIdentical: enacting a selection through a live session
// produces, for every script, outputs bit-identical to a cold
// independent run of the same script — sharing changes cost, never
// results — while the cache serves consumers and charges the MQO
// owner, not the submitting tenant.
func TestEnactBitIdentical(t *testing.T) {
	srcs := []string{wlBuilder, wlOnceA, wlOnceB}
	outs := [][]string{{"a1.out", "a2.out"}, {"b3.out"}, {"c4.out"}}

	// Independent references: each script cold in its own session.
	refs := make([]map[string]*exec.Table, len(srcs))
	for i, src := range srcs {
		fs := exec.NewFileStore()
		fs.Put("test.log", mqoTable())
		s, err := share.NewSession(share.Config{Catalog: mqoCatalog(), FS: fs, Machines: 8})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = rep.Outputs
	}

	d := buildTestDAG(t, srcs...)
	ev := NewEvaluator(d, opt.DefaultOptions())
	sel, err := Select(ev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Keys) == 0 {
		t.Fatal("selection chose nothing to enact")
	}

	fs := exec.NewFileStore()
	fs.Put("test.log", mqoTable())
	s, err := share.NewSession(share.Config{Catalog: d.Cat, FS: fs, Machines: 8})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := Enact(context.Background(), s, d, sel, share.RunOpts{Tenant: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(srcs) {
		t.Fatalf("enacted %d reports for %d scripts", len(reps), len(srcs))
	}

	hits := 0
	for i, rep := range reps {
		hits += rep.CacheHits
		for _, out := range outs[i] {
			got, want := rep.Outputs[out], refs[i][out]
			if got == nil || want == nil {
				t.Fatalf("script %d: missing output %s", i, out)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: %d rows, want %d", out, len(got.Rows), len(want.Rows))
			}
			for r := range got.Rows {
				if !reflect.DeepEqual(got.Rows[r], want.Rows[r]) {
					t.Fatalf("%s row %d: %v, want %v", out, r, got.Rows[r], want.Rows[r])
				}
			}
		}
	}
	if hits == 0 {
		t.Error("no enacted run hit the shared cache")
	}
	if got := s.Cache().OwnerBytes(share.MQOOwner); got == 0 {
		t.Error("no artifact charged to the MQO owner")
	}
}

// TestEnactLeavesNoForcedState: the chosen set binds the enacted runs
// only. After Enact, once a source write invalidates the artifact, a
// plain tenant run of the builder script is an ordinary single-consumer
// run again: it spools nothing, admits nothing, and charges nothing to
// the MQO owner past the tenant's quota.
func TestEnactLeavesNoForcedState(t *testing.T) {
	d := buildTestDAG(t, wlOnceA, wlOnceB)
	sel, err := Select(NewEvaluator(d, opt.DefaultOptions()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Keys) == 0 {
		t.Fatal("selection chose nothing to enact")
	}
	fs := exec.NewFileStore()
	fs.Put("test.log", mqoTable())
	s, err := share.NewSession(share.Config{Catalog: d.Cat, FS: fs, Machines: 8})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := Enact(context.Background(), s, d, sel, share.RunOpts{Tenant: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Admitted == 0 || reps[1].CacheHits == 0 {
		t.Fatalf("enactment did not share: builder admitted %d, consumer hits %d",
			reps[0].Admitted, reps[1].CacheHits)
	}
	owned := s.Cache().OwnerBytes(share.MQOOwner)

	fs.Put("test.log", mqoTable()) // new version: the artifact is stale
	rep, err := s.RunContext(context.Background(), wlOnceA,
		share.RunOpts{Tenant: "t", TenantCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 0 {
		t.Errorf("plain run after Enact admitted %d artifacts for a single-consumer subexpression", rep.Admitted)
	}
	if got := s.Cache().OwnerBytes(share.MQOOwner); got > owned {
		t.Errorf("MQO owner grew from %d to %d bytes on a plain run", owned, got)
	}
}
