package share

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/opt"
)

// TestCacheObservedReuseHistory: demand history counts hits and
// admission-time misses per subexpression identity, and survives
// eviction of the artifact — history is about the subexpression, not
// the file.
func TestCacheObservedReuseHistory(t *testing.T) {
	c, fs, cat := cacheFixture(0)
	if got := c.ObservedReuse(idOf(7, "sig")); got != 0 {
		t.Fatalf("fresh cache reports reuse %d", got)
	}
	c.NoteDemand(idOf(7, "sig"))
	c.NoteDemand(idOf(7, "sig"))
	if got := c.ObservedReuse(idOf(7, "sig")); got != 2 {
		t.Errorf("two misses recorded reuse %d, want 2", got)
	}

	// A hit on a live entry counts toward both the entry's hit count
	// and the shared demand history.
	ce, src := entryFor(fs, cat, 7, "__cache/h", 3)
	c.Put(ce.record("sig", 10, 1), ce.Path, 100, src, "")
	c.NoteUse(idOf(7, "sig"), "sig", ce.Schema)
	if got := c.Describe().Entries[0].Hits; got != 1 {
		t.Errorf("entry hits = %d, want 1", got)
	}
	if got := c.ObservedReuse(idOf(7, "sig")); got != 3 {
		t.Errorf("reuse after hit = %d, want 3", got)
	}
	if st := c.Stats(); st.Hits != 1 || st.ReuseTracked != 1 {
		t.Errorf("stats = %+v, want Hits=1 ReuseTracked=1", st)
	}

	// NoteUse without a matching entry still counts demand (the run
	// wanted the subexpression) but cannot bump any entry.
	c.NoteUse(idOf(9, "other"), "other", ce.Schema)
	if got := c.ObservedReuse(idOf(9, "other")); got != 1 {
		t.Errorf("entry-less NoteUse recorded reuse %d, want 1", got)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("entry-less NoteUse bumped Stats.Hits: %+v", st)
	}

	// Eviction drops the entry but not the history.
	c2, fs2, cat2 := cacheFixture(150)
	c2.NoteDemand(idOf(8, "s"))
	ceA, srcA := entryFor(fs2, cat2, 8, "__cache/a8", 3)
	c2.Put(ceA.record("s", 10, 1), ceA.Path, 100, srcA, "")
	ceB, srcB := entryFor(fs2, cat2, 9, "__cache/b9", 3)
	c2.Put(ceB.record("s", 10, 1), ceB.Path, 100, srcB, "") // evicts one of the two
	if st := c2.Stats(); st.Evictions == 0 {
		t.Fatalf("no eviction at 150-byte bound: %+v", st)
	}
	if got := c2.ObservedReuse(idOf(8, "s")); got != 1 {
		t.Errorf("reuse history lost across eviction: %d, want 1", got)
	}
}

// TestCacheBenefitEvictionBeatsLRU constructs a cache where the LRU
// and benefit orderings disagree: the least-recently-used entry is
// expensive to rebuild and frequently hit, while a more recently
// touched entry saves almost nothing per byte. Benefit-aware eviction
// must keep the valuable stale entry and evict the cheap fresh one;
// pure LRU would do the opposite.
func TestCacheBenefitEvictionBeatsLRU(t *testing.T) {
	c, fs, cat := cacheFixture(250)

	// Entry 1: build 1000 vs read 10, hit twice → score 2×990/100.
	ce1, src1 := entryFor(fs, cat, 1, "__cache/1", 3)
	c.Put(ce1.record("s", 1000, 10), ce1.Path, 100, src1, "")
	c.NoteUse(idOf(1, "s"), "s", ce1.Schema)
	c.NoteUse(idOf(1, "s"), "s", ce1.Schema)

	// Entry 2: rebuilding costs barely more than reading → score
	// ~1/100 even after its LRU refresh below.
	ce2, src2 := entryFor(fs, cat, 2, "__cache/2", 3)
	c.Put(ce2.record("s", 11, 10), ce2.Path, 100, src2, "")
	if _, ok := c.Lookup(idOf(2, "s"), "s", ce2.Schema); !ok {
		t.Fatal("entry 2 should hit")
	}
	// LRU order is now [1 oldest, 2 newest]: pure LRU would evict 1.

	// Entry 3 overflows the bound; the victim must be the low-benefit
	// entry 2, not the least-recently-used entry 1.
	ce3, src3 := entryFor(fs, cat, 3, "__cache/3", 3)
	c.Put(ce3.record("s", 500, 10), ce3.Path, 100, src3, "")
	if !c.Contains(idOf(1, "s"), nil) || c.Contains(idOf(2, "s"), nil) || !c.Contains(idOf(3, "s"), nil) {
		t.Errorf("benefit eviction kept holds(1)=%v holds(2)=%v holds(3)=%v, want true/false/true",
			c.Contains(idOf(1, "s"), nil), c.Contains(idOf(2, "s"), nil), c.Contains(idOf(3, "s"), nil))
	}
	if _, ok := fs.Get("__cache/2"); ok {
		t.Error("evicted artifact not removed")
	}
}

// doctoredAdmissionResult optimizes scriptA and rescales its first
// artifact's recorded build cost to ratio × read exactly, putting the
// admission decision at a known point of the formula regardless of
// the cost model's real numbers.
func doctoredAdmissionResult(t *testing.T, s *Session, ratio float64) *opt.Result {
	t.Helper()
	m, err := logical.BuildSource(scriptA, s.cfg.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(m, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifacts) == 0 {
		t.Fatal("script A produced no artifact")
	}
	a := &res.Artifacts[0]
	a.Build = ratio * a.Read
	return res
}

// TestSessionObservedReuseAdmission is the satellite regression test:
// a subexpression whose build is 1.8× its read cost fails the
// admission formula while it has no history (reuse = max(0, 1) = 1:
// (build−read)×1 = 0.8×read ≤ read), but once two runs have demanded
// it, the observed history is the estimate and the third run admits it
// ((build−read)×2 = 1.6×read > read).
func TestSessionObservedReuseAdmission(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	res := doctoredAdmissionResult(t, s, 1.8)

	for run := 1; run <= 2; run++ {
		_, pend, misses := s.admit(res, newPinner(s.cache), "", nil)
		if misses == 0 {
			t.Fatalf("run %d: no miss recorded", run)
		}
		if len(pend) != 0 {
			t.Fatalf("run %d admitted %d spool(s); reuse 1 should reject", run, len(pend))
		}
	}

	// Third run: history says two past runs demanded it.
	_, pend, _ := s.admit(res, newPinner(s.cache), "t", nil)
	if len(pend) != 1 {
		t.Fatalf("observed reuse of 2 admitted %d spool(s), want 1", len(pend))
	}
	if pend[0].owner != "t" {
		t.Errorf("admitted owner %q, want submitting tenant", pend[0].owner)
	}
	if pend[0].Build <= 0 || pend[0].Read <= 0 {
		t.Errorf("pending commit missing benefit costs: build=%v read=%v", pend[0].Build, pend[0].Read)
	}

	// Control: the same costs in a fresh session (no history) are
	// rejected at reuse 1.
	s2 := newTestSession(t, cat, fs, 0)
	if _, pend, _ := s2.admit(res, newPinner(s2.cache), "", nil); len(pend) != 0 {
		t.Errorf("fresh session admitted %d spool(s) at reuse 1", len(pend))
	}
}

// TestSessionPreadmitForcesMaterialization: a workload-chosen (MQO)
// subexpression passed as RunOpts.ForceMaterialize is
// force-materialized by a script that consumes it only once — cold,
// that plan has no spool at all — is admitted bypassing the cost
// formula, owned by MQOOwner outside tenant quotas, and serves the
// next run from the cache. Results stay bit-identical to the cold run.
func TestSessionPreadmitForcesMaterialization(t *testing.T) {
	// Discover the shared subexpression's identity from script A,
	// whose plan spools it naturally.
	catX, fsX := testEnv(t)
	sx := newTestSession(t, catX, fsX, 0)
	m, err := logical.BuildSource(scriptA, catX)
	if err != nil {
		t.Fatal(err)
	}
	resX, err := opt.Optimize(m, sx.opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(resX.Artifacts) == 0 {
		t.Fatal("script A produced no artifact")
	}
	key := resX.Artifacts[0].ID
	if key.FP == 0 || resX.Artifacts[0].Sig == "" {
		t.Fatalf("shared subexpression has no identity: %+v", key)
	}

	// Cold reference: script B in a plain session.
	catC, fsC := testEnv(t)
	cold, err := newTestSession(t, catC, fsC, 0).Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Admitted != 0 {
		t.Fatalf("cold single-consumer script B admitted %d artifacts", cold.Admitted)
	}

	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	forced := RunOpts{Tenant: "t", TenantCacheBytes: 1, // quota must not bind MQO artifacts
		ForceMaterialize: []Subexpr{key}}

	rep, err := s.RunContext(t.Context(), scriptB, forced)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 1 || rep.QuotaRejected != 0 {
		t.Fatalf("forced run admitted=%d quotaRejected=%d, want 1/0", rep.Admitted, rep.QuotaRejected)
	}
	if got := s.Cache().OwnerBytes(MQOOwner); got != rep.AdmittedBytes {
		t.Errorf("MQO owner charged %d bytes, admitted %d", got, rep.AdmittedBytes)
	}
	if got := s.Cache().OwnerBytes("t"); got != 0 {
		t.Errorf("tenant charged %d bytes for a workload artifact", got)
	}
	if !s.Cache().Contains(key, nil) {
		t.Fatal("forced subexpression not in cache after the builder run")
	}
	sameRows(t, "b3.out", rep.Outputs["b3.out"], cold.Outputs["b3.out"])

	// The next consumer is served from the forced artifact.
	rep2, err := s.Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits == 0 {
		t.Fatal("consumer run after forced materialization missed the cache")
	}
	sameRows(t, "b3.out warm", rep2.Outputs["b3.out"], cold.Outputs["b3.out"])

	// Once the cache holds the key, a run carrying it stops forcing it.
	rep3, err := s.RunContext(t.Context(), scriptB, forced)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.CacheHits == 0 || rep3.Admitted != 0 {
		t.Errorf("forced key still rebuilt while the cache holds it: hits=%d admitted=%d", rep3.CacheHits, rep3.Admitted)
	}
}
