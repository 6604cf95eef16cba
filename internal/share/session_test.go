package share

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/stats"
)

// scriptA shares R between two consumers, so its plan materializes R
// through a spool — the admission candidate.
const scriptA = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "a1.out" ORDER BY A, B;
OUTPUT R2 TO "a2.out" ORDER BY B, C;
`

// scriptB recomputes the same R subexpression once (no within-query
// sharing): a warm session should serve it from the cache.
const scriptB = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R3 = SELECT A,C,Sum(S) as S3 FROM R GROUP BY A,C;
OUTPUT R3 TO "b3.out" ORDER BY A, C;
`

func testCatalog() *stats.Catalog {
	cat := stats.NewCatalog()
	cat.Put("test.log", &stats.TableStats{Rows: 2_000_000_000, Columns: map[string]stats.ColumnStats{
		"A": {Distinct: 100, AvgBytes: 8},
		"B": {Distinct: 50, AvgBytes: 8},
		"C": {Distinct: 200, AvgBytes: 8},
		"D": {Distinct: 1 << 40, AvgBytes: 8},
	}})
	return cat
}

func testTable(seed int64) *exec.Table {
	schema := relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt},
		{Name: "C", Type: relop.TInt}, {Name: "D", Type: relop.TInt},
	}
	t := &exec.Table{Schema: schema}
	for i := int64(0); i < 400; i++ {
		t.Rows = append(t.Rows, relop.Row{
			relop.IntVal(i % 7), relop.IntVal(i % 5),
			relop.IntVal(i % 11), relop.IntVal(i*13 + seed),
		})
	}
	return t
}

func testEnv(t *testing.T) (*stats.Catalog, *exec.FileStore) {
	t.Helper()
	cat := testCatalog()
	fs := exec.NewFileStore()
	fs.Put("test.log", testTable(0))
	return cat, fs
}

func newTestSession(t *testing.T, cat *stats.Catalog, fs *exec.FileStore, workers int) *Session {
	t.Helper()
	s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameRows(t *testing.T, label string, got, want *exec.Table) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing table (got=%v want=%v)", label, got != nil, want != nil)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestSessionWarmHitReducesBytes is acceptance criterion (a): script
// B warm (after A) must move strictly fewer metered exchange+disk
// bytes than B cold, with identical results.
func TestSessionWarmHitReducesBytes(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)

	repA, err := s.Run(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Admitted == 0 {
		t.Fatalf("script A admitted nothing: %+v", repA)
	}
	if repA.CacheHits != 0 {
		t.Errorf("cold script A reported %d cache hits", repA.CacheHits)
	}

	warm, err := s.Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits == 0 {
		t.Fatal("warm script B did not hit the cache")
	}
	if warm.Metrics.CacheReads == 0 || warm.Metrics.CacheBytesRead == 0 {
		t.Errorf("warm metrics did not meter cache reads: %+v", warm.Metrics)
	}
	// A default-configured session runs the columnar kernels, cold and
	// warm.
	if repA.Metrics.BatchesProcessed == 0 || warm.Metrics.BatchesProcessed == 0 {
		t.Errorf("default session processed no batches: cold %d, warm %d",
			repA.Metrics.BatchesProcessed, warm.Metrics.BatchesProcessed)
	}

	// Cold baseline: a fresh session (empty cache) over the same data.
	catC, fsC := testEnv(t)
	cold, err := newTestSession(t, catC, fsC, 0).Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Errorf("cold session reported %d cache hits", cold.CacheHits)
	}

	warmBytes := warm.Metrics.DiskBytesRead + warm.Metrics.NetBytes
	coldBytes := cold.Metrics.DiskBytesRead + cold.Metrics.NetBytes
	if warmBytes >= coldBytes {
		t.Errorf("warm disk+net = %d, want strictly below cold %d", warmBytes, coldBytes)
	}
	sameRows(t, "b3.out", warm.Outputs["b3.out"], cold.Outputs["b3.out"])
}

// TestSessionResultsIdenticalAcrossWorkers is acceptance criterion
// (b): warm results are bit-identical to the cold cache-disabled run
// at every worker count.
func TestSessionResultsIdenticalAcrossWorkers(t *testing.T) {
	catR, fsR := testEnv(t)
	ref, err := newTestSession(t, catR, fsR, 1).Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		cat, fs := testEnv(t)
		s := newTestSession(t, cat, fs, workers)
		if _, err := s.Run(scriptA); err != nil {
			t.Fatal(err)
		}
		warm, err := s.Run(scriptB)
		if err != nil {
			t.Fatal(err)
		}
		if warm.CacheHits == 0 {
			t.Fatalf("workers=%d: no cache hit", workers)
		}
		sameRows(t, "b3.out", warm.Outputs["b3.out"], ref.Outputs["b3.out"])
	}
}

// TestSessionInvalidationOnDataChange is acceptance criterion (c):
// mutating a source table between A and B must evict the dependent
// entry and produce results computed from the new data.
func TestSessionInvalidationOnDataChange(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	if _, err := s.Run(scriptA); err != nil {
		t.Fatal(err)
	}

	fs.Put("test.log", testTable(1000)) // new data, new version

	rep, err := s.Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 {
		t.Errorf("script B hit a stale cache entry %d time(s)", rep.CacheHits)
	}
	if st := s.CacheStats(); st.Invalidations == 0 {
		t.Errorf("no invalidation recorded: %+v", st)
	}

	// The results must match a from-scratch run over the new data.
	catC, fsC := testCatalog(), exec.NewFileStore()
	fsC.Put("test.log", testTable(1000))
	cold, err := newTestSession(t, catC, fsC, 0).Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "b3.out", rep.Outputs["b3.out"], cold.Outputs["b3.out"])
}

// TestSessionInvalidationOnStatsChange: re-registering statistics for
// a source table bumps its epoch, which must also invalidate
// dependent entries (the recorded cost basis is stale).
func TestSessionInvalidationOnStatsChange(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	if _, err := s.Run(scriptA); err != nil {
		t.Fatal(err)
	}

	cat.Put("test.log", &stats.TableStats{Rows: 1_000, Columns: map[string]stats.ColumnStats{
		"A": {Distinct: 7, AvgBytes: 8}, "B": {Distinct: 5, AvgBytes: 8},
		"C": {Distinct: 11, AvgBytes: 8}, "D": {Distinct: 400, AvgBytes: 8},
	}})

	rep, err := s.Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 {
		t.Errorf("script B hit a cache entry with a stale stats epoch %d time(s)", rep.CacheHits)
	}
	if st := s.CacheStats(); st.Invalidations == 0 {
		t.Errorf("no invalidation recorded: %+v", st)
	}
}

// TestSessionCacheStats: admission populates the cache and the
// session reports it.
func TestSessionCacheStats(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	rep, err := s.Run(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Entries == 0 || st.Bytes == 0 || st.Insertions == 0 {
		t.Errorf("cache stats after admission = %+v", st)
	}
	if rep.AdmittedBytes != st.Bytes {
		t.Errorf("report admitted %d bytes, cache holds %d", rep.AdmittedBytes, st.Bytes)
	}
	if rep.CacheMisses == 0 {
		t.Errorf("script A should report its spool as a miss: %+v", rep)
	}
	// The warm run must not change occupancy (same entry, no re-admit).
	if _, err := s.Run(scriptB); err != nil {
		t.Fatal(err)
	}
	if st2 := s.CacheStats(); st2.Entries != st.Entries {
		t.Errorf("entries changed %d -> %d across a pure-hit run", st.Entries, st2.Entries)
	}
}

// TestSessionConfigErrors: a session without its moving parts is an
// error, not a latent panic.
func TestSessionConfigErrors(t *testing.T) {
	if _, err := NewSession(Config{}); err == nil {
		t.Error("empty config should not build a session")
	}
	cat, fs := testEnv(t)
	if _, err := NewSession(Config{Catalog: cat, FS: fs}); err == nil {
		t.Error("zero machines should not build a session")
	}
	s := newTestSession(t, cat, fs, 0)
	if _, err := s.Run("not a script"); err == nil {
		t.Error("garbage script should fail")
	}
}

// scriptE shares an aggregation other than scriptA's R, so its artifact
// competes with R's for a cache sized to hold one of them.
const scriptE = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
Q = SELECT A,B,Sum(D) as T FROM R0 WHERE D > 10 GROUP BY A,B;
Q1 = SELECT A,Sum(T) as T1 FROM Q GROUP BY A;
Q2 = SELECT B,Sum(T) as T2 FROM Q GROUP BY B;
OUTPUT Q1 TO "e1.out" ORDER BY A;
OUTPUT Q2 TO "e2.out" ORDER BY B;
`

// TestSessionCachedPlanMatchesFreshPlan is the plan cache's axis of the
// session suite: a session serving plans from its plan store runs
// bit-identically to one that searches every time — same outputs,
// digests, cost, Plan-JSON and sharing counters — across a data write
// (FileStore.Put), new statistics (Catalog.Put) and eviction. A traced
// session never reads the store, so it is the fresh-plan side. The store
// serves a plan only when none of its lookups' answers moved, and each
// served plan counts once in opt.plan_hits.
func TestSessionCachedPlanMatchesFreshPlan(t *testing.T) {
	// A cache that holds scriptA's artifact but not scriptE's beside it.
	cat0, fs0 := testEnv(t)
	probe, err := newTestSession(t, cat0, fs0, 0).Run(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	type side struct {
		s   *Session
		cat *stats.Catalog
		fs  *exec.FileStore
		reg *obs.Registry
	}
	mk := func(tracer *obs.Tracer) side {
		cat, fs := testEnv(t)
		reg := obs.NewRegistry()
		s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, CacheBytes: probe.AdmittedBytes + 1,
			Obs: reg, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		return side{s, cat, fs, reg}
	}
	cached, fresh := mk(nil), mk(obs.NewTracer())
	newStats := &stats.TableStats{Rows: 1_000, Columns: map[string]stats.ColumnStats{
		"A": {Distinct: 7, AvgBytes: 8}, "B": {Distinct: 5, AvgBytes: 8},
		"C": {Distinct: 11, AvgBytes: 8}, "D": {Distinct: 400, AvgBytes: 8},
	}}
	steps := []struct {
		name   string
		before func(side)
		script string
		// served: whether the plan must come from the store.
		served bool
	}{
		{"cold", nil, scriptA, false},
		{"A admitted", nil, scriptA, false},
		{"warm", nil, scriptA, true},
		{"data write", func(x side) { x.fs.Put("test.log", testTable(1000)) }, scriptA, false},
		{"after write", nil, scriptA, false},
		{"after write", nil, scriptA, true},
		{"new statistics", func(x side) { x.cat.Put("test.log", newStats) }, scriptA, false},
		{"after statistics", nil, scriptA, false},
		{"after statistics", nil, scriptA, true},
		{"other script", nil, scriptB, false},
		{"other script again", nil, scriptB, true},
		// E's artifact evicts R; A's stored plan reads R, so A searches,
		// and from then on R is admitted and at once evicted again — a
		// stored plan that reads nothing stays servable.
		{"evicting", nil, scriptE, false},
		{"E admitted", nil, scriptE, false},
		{"R evicted", nil, scriptA, false},
		{"thrashing", nil, scriptA, true},
		{"thrashing", nil, scriptA, true},
	}
	served := 0
	for i, st := range steps {
		var reps [2]*RunReport
		for j, x := range []side{cached, fresh} {
			if st.before != nil {
				st.before(x)
			}
			rep, err := x.s.Run(st.script)
			if err != nil {
				t.Fatalf("step %d (%s): %v", i, st.name, err)
			}
			reps[j] = rep
		}
		got, want := reps[0], reps[1]
		if want.PlanCached {
			t.Fatalf("step %d (%s): the traced session was served a stored plan", i, st.name)
		}
		if got.PlanCached != st.served {
			t.Errorf("step %d (%s): plan served from the store = %t, want %t", i, st.name, got.PlanCached, st.served)
		}
		if got.PlanCached {
			served++
		}
		gotJS, err := plan.MarshalPlan(got.Plan)
		if err != nil {
			t.Fatal(err)
		}
		wantJS, err := plan.MarshalPlan(want.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJS, wantJS) || got.Cost != want.Cost || got.Opt != want.Opt {
			t.Errorf("step %d (%s): cached-side plan differs from the fresh search (cost %v vs %v, stats %+v vs %+v)",
				i, st.name, got.Cost, want.Cost, got.Opt, want.Opt)
		}
		if got.Sharing != want.Sharing || !reflect.DeepEqual(got.Digests, want.Digests) {
			t.Errorf("step %d (%s): sharing %+v digests %v, fresh side %+v %v",
				i, st.name, got.Sharing, got.Digests, want.Sharing, want.Digests)
		}
		for path, tab := range want.Outputs {
			sameRows(t, st.name+" "+path, got.Outputs[path], tab)
		}
		assertQuiescent(t, cached.s)
	}
	if n := cached.s.CacheStats().Evictions; n == 0 || n != fresh.s.CacheStats().Evictions {
		t.Errorf("evictions: cached side %d, fresh side %d, want equal and positive", n, fresh.s.CacheStats().Evictions)
	}
	snap := cached.reg.Snapshot()
	if got := snap.Counters["opt.plan_hits"]; got != int64(served) {
		t.Errorf("opt.plan_hits = %d, %d runs served from the store", got, served)
	}
	if h := snap.Hists["opt.optimize_us"]; h.Count != int64(len(steps)) {
		t.Errorf("opt.optimize_us holds %d observations, want one per run (%d)", h.Count, len(steps))
	}
	if p, f := snap.Counters["opt.phase1_tasks"], fresh.reg.Snapshot().Counters["opt.phase1_tasks"]; p >= f {
		t.Errorf("opt.phase1_tasks: cached side %d, fresh side %d — served plans must not count search effort", p, f)
	}
}
