package share

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/stats"
)

// scriptC recomputes the shared aggregation with a third consumer
// set, so concurrent sessions mixing A, B, and C all contend on the
// same cache key.
const scriptC = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R4 = SELECT B,Sum(S) as S4 FROM R GROUP BY B;
OUTPUT R4 TO "c4.out" ORDER BY B;
`

// TestSessionMissCountDedup is the regression test for the admission
// miss double-count: two spool references to one subexpression
// (same group and context key) are one missed sharing opportunity.
// The pre-fix code incremented the miss counter before the
// group|ctxkey dedup, so a duplicated spool counted twice. The dedup
// now lives in the optimizer's artifact list (opt's
// TestArtifactsOnePerSpool grafts the duplicate reference); admission
// counts one miss per distinct spool of the plan.
func TestSessionMissCountDedup(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)

	m, err := logical.BuildSource(scriptA, cat)
	if err != nil {
		t.Fatal(err)
	}
	o := s.opts
	res, err := opt.Optimize(m, o)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[plan.SpoolID]bool{}
	for _, sp := range plan.FindAll(res.Plan, relop.KindPhysSpool) {
		distinct[sp.SpoolID()] = true
	}
	if len(distinct) == 0 {
		t.Fatal("script A produced no spool")
	}
	if _, _, misses := s.admit(res, newPinner(s.cache), "", nil); misses != len(distinct) {
		t.Errorf("%d distinct spools counted %d misses, want one per distinct subexpression", len(distinct), misses)
	}
}

// TestSessionMissCountsRacingCommit: a run whose search did not find a
// subexpression cached builds it through its spool, so it counts a
// miss and notes demand for it even when another run commits the
// identity between this run's search and its admission — and persists
// no second copy. Admission used to ask the cache instead of the
// search, so such a run reported hits=0 misses=0 (serve's
// TestEventLogAdditivity caught it about once in a hundred -race runs).
func TestSessionMissCountsRacingCommit(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	c, err := s.Compile(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	pins := newPinner(s.cache)
	defer pins.release()
	o := s.opts
	o.Cache = pins
	res, err := Optimize(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plan.FindAll(res.Plan, relop.KindCacheScan)); n != 0 || len(res.Artifacts) == 0 {
		t.Fatalf("cold search planned %d cache reads and %d artifacts, want 0 and some", n, len(res.Artifacts))
	}

	// Another run of the same script commits every artifact first.
	racer, err := s.Run(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	if racer.Admitted == 0 {
		t.Fatal("the racing run committed nothing")
	}
	before := make([]int64, len(res.Artifacts))
	for i, a := range res.Artifacts {
		before[i] = s.cache.ObservedReuse(a.ID)
	}
	persist, pend, misses := s.admit(res, pins, "", nil)
	if misses != len(res.Artifacts) {
		t.Errorf("the run builds %d subexpressions its search did not find, counted %d misses", len(res.Artifacts), misses)
	}
	for i, a := range res.Artifacts {
		if got := s.cache.ObservedReuse(a.ID) - before[i]; got != 1 {
			t.Errorf("artifact %s: the miss noted %d demand, want 1", a.ID, got)
		}
	}
	if len(persist) != 0 || len(pend) != 0 {
		t.Errorf("persisted %d/%d copies of identities the cache holds, want none", len(persist), len(pend))
	}
}

// TestSessionConcurrentRuns drives many concurrent Run calls with
// overlapping scripts through one session and requires every result
// to be bit-identical to a sequential run of the same script in a
// fresh session. Pre-fix, concurrent runs raced on the artifact
// sequence number, the publish baseline, and the cache commit; the
// check.sh share race leg runs this under -race.
func TestSessionConcurrentRuns(t *testing.T) {
	scripts := []struct{ src, out string }{
		{scriptA, "a1.out"},
		{scriptB, "b3.out"},
		{scriptC, "c4.out"},
	}

	// Sequential references: each script cold, in its own session.
	refs := make([]*exec.Table, len(scripts))
	for i, sc := range scripts {
		cat, fs := testEnv(t)
		rep, err := newTestSession(t, cat, fs, 2).Run(sc.src)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = rep.Outputs[sc.out]
	}

	cat, fs := testEnv(t)
	reg := obs.NewRegistry()
	s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, Workers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	// One sequential warm-up admits the shared aggregation, so every
	// concurrent run below has a valid entry to hit — without it, all
	// goroutines can be mid-run before any admission commits and the
	// hit assertion would be a timing lottery.
	warm, err := s.Run(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Admitted == 0 {
		t.Fatalf("warm-up admitted nothing: %+v", warm)
	}

	const rounds = 4
	var wg sync.WaitGroup
	reports := make([]*RunReport, rounds*len(scripts))
	errs := make([]error, rounds*len(scripts))
	for r := 0; r < rounds; r++ {
		for i := range scripts {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				rep, err := s.RunContext(context.Background(), scripts[i].src,
					RunOpts{Tenant: fmt.Sprintf("t%d", i)})
				reports[slot], errs[slot] = rep, err
			}(r*len(scripts)+i, i)
		}
	}
	wg.Wait()

	hits := 0
	for slot, rep := range reports {
		if errs[slot] != nil {
			t.Fatalf("run %d: %v", slot, errs[slot])
		}
		i := slot % len(scripts)
		sameRows(t, scripts[i].out, rep.Outputs[scripts[i].out], refs[i])
		hits += rep.CacheHits
	}
	if hits == 0 {
		t.Error("no concurrent run hit the shared cache")
	}

	// The published lifecycle deltas must sum to the cache's own
	// cumulative counters — the additivity invariant the per-run
	// publishes exist to preserve.
	st := s.CacheStats()
	snap := reg.Snapshot()
	if got := snap.Counters["share.cache_insertions"]; got != st.Insertions {
		t.Errorf("published insertions %d, cache counted %d", got, st.Insertions)
	}
	if got := snap.Counters["share.cache_evictions"]; got != st.Evictions {
		t.Errorf("published evictions %d, cache counted %d", got, st.Evictions)
	}
	if got := snap.Counters["share.cache_invalidations"]; got != st.Invalidations {
		t.Errorf("published invalidations %d, cache counted %d", got, st.Invalidations)
	}
	assertQuiescent(t, s)
}

// TestSessionPublishAfterFailedRun: a run that fails during execution
// must still publish the cache lifecycle delta (the optimizer's
// lookups may have invalidated entries), so the next successful run's
// delta reports only its own activity.
func TestSessionPublishAfterFailedRun(t *testing.T) {
	cat, fs := testEnv(t)
	reg := obs.NewRegistry()
	s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(scriptA); err != nil {
		t.Fatal(err)
	}

	// New data: the admitted entry is now stale. The failing script
	// still contains the shared subexpression, so its optimizer
	// lookup drops the stale entry — an invalidation that happens
	// during a run that then fails (missing.log has statistics but no
	// physical file).
	fs.Put("test.log", testTable(1000))
	cat.Put("missing.log", &stats.TableStats{Rows: 10, Columns: map[string]stats.ColumnStats{
		"A": {Distinct: 5, AvgBytes: 8},
	}})
	failing := scriptB + `
M0 = EXTRACT A FROM "missing.log" USING LogExtractor;
OUTPUT M0 TO "m.out";
`
	if _, err := s.Run(failing); err == nil {
		t.Fatal("run over a missing input file should fail")
	}

	st := s.CacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("failed run invalidated nothing: %+v", st)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["share.cache_invalidations"]; got != st.Invalidations {
		t.Errorf("failed run published %d invalidations, cache counted %d",
			got, st.Invalidations)
	}
	assertQuiescent(t, s)
}

// TestSessionTenantQuota: an artifact passing the admission test is
// still discarded when it would push the tenant past its cache quota,
// and the discard is reported, not silently dropped.
func TestSessionTenantQuota(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	rep, err := s.RunContext(context.Background(), scriptA,
		RunOpts{Tenant: "small", TenantCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 0 || rep.QuotaRejected == 0 {
		t.Fatalf("quota of 1 byte admitted %d, rejected %d", rep.Admitted, rep.QuotaRejected)
	}
	if got := s.Cache().OwnerBytes("small"); got != 0 {
		t.Errorf("tenant charged %d bytes past its quota", got)
	}
	assertQuiescent(t, s)

	// An unconstrained tenant admits and is charged.
	rep2, err := s.RunContext(context.Background(), scriptA, RunOpts{Tenant: "big"})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Admitted == 0 {
		t.Fatalf("unconstrained tenant admitted nothing: %+v", rep2)
	}
	if got := s.Cache().OwnerBytes("big"); got != rep2.AdmittedBytes {
		t.Errorf("tenant charged %d bytes, admitted %d", got, rep2.AdmittedBytes)
	}
}

// TestSessionRunContextCancel: a canceled context stops the run and
// surfaces the cancellation cause.
func TestSessionRunContextCancel(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, scriptA, RunOpts{}); err == nil {
		t.Fatal("canceled context should fail the run")
	}
	assertQuiescent(t, s)
}

// TestCachePinKeepsArtifact: a pinned artifact survives invalidation
// of its entry until the last pin releases — the guarantee that lets
// a concurrent run execute a CacheScan it planned before an eviction.
func TestCachePinKeepsArtifact(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	if _, err := s.Run(scriptA); err != nil {
		t.Fatal(err)
	}
	c := s.Cache()

	// Find the admitted artifact via a pinning lookup on script B's
	// shared subexpression.
	m, err := logical.BuildSource(scriptB, cat)
	if err != nil {
		t.Fatal(err)
	}
	pins := newPinner(c)
	o := s.opts
	o.Cache = pins
	res, err := opt.Optimize(m, o)
	if err != nil {
		t.Fatal(err)
	}
	scans := plan.FindAll(res.Plan, relop.KindCacheScan)
	if len(scans) == 0 {
		t.Fatal("warm plan has no CacheScan")
	}
	path := scans[0].Op.(*relop.PhysCacheScan).Path
	if _, ok := fs.Get(path); !ok {
		t.Fatalf("artifact %q missing before invalidation", path)
	}

	// Invalidate the entry: the artifact must survive while pinned.
	fs.Put("test.log", testTable(1000))
	for id := range pins.seen {
		if c.Contains(id, nil) {
			t.Fatal("stale entry still valid after source mutation")
		}
	}
	if _, ok := fs.Get(path); !ok {
		t.Fatal("pinned artifact removed while a run still references it")
	}
	pins.release()
	if _, ok := fs.Get(path); ok {
		t.Fatal("orphaned artifact not removed after last unpin")
	}
}

// TestSessionConcurrentPlanHits: eight goroutines run one script on one
// session, all served from a single stored search, so they execute one
// shared plan tree at once. Every run's outputs must equal
// exec.Reference's, and the session must come to rest with no pins.
func TestSessionConcurrentPlanHits(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	for warm := 0; ; warm++ {
		rep, err := s.Run(scriptA)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PlanCached {
			break
		}
		if warm == 3 {
			t.Fatal("scriptA was never served from the plan store")
		}
	}
	m, err := logical.BuildSource(scriptA, cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Reference(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	reps := make([]*RunReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = s.Run(scriptA)
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !rep.PlanCached || rep.Plan != reps[0].Plan {
			t.Errorf("run %d: served=%t, same plan tree as run 0: %t", i, rep.PlanCached, rep.Plan == reps[0].Plan)
		}
		for path, tab := range want {
			if got := rep.Outputs[path]; got == nil || !got.Equal(tab) {
				t.Errorf("run %d: %s differs from exec.Reference", i, path)
			}
		}
	}
	assertQuiescent(t, s)
}
