package share

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/stats"
)

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
	fs.Put("test.log", datagen.RollupTable(1000))
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
	fs.Put("test.log", datagen.RollupTable(1000))
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
