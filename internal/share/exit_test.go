package share

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/opt"
)

// scriptAFails is scriptA with a consumer that divides by zero: the
// shared aggregation is spooled (and its admitted artifact persisted)
// before the failing SELECT runs, so the run fails with its artifact
// already in the FileStore.
const scriptAFails = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
R5 = SELECT B,C,S2/(B-B) as Z FROM R2;
OUTPUT R1 TO "a1.out" ORDER BY A, B;
OUTPUT R5 TO "a2.out" ORDER BY B, C;
`

// assertQuiescent holds the session to its at-rest invariants: no
// pins, no orphans, every __cache/ file owned by an entry, owner bytes
// summing to the cache total.
func assertQuiescent(t *testing.T, s *Session) {
	t.Helper()
	if err := s.Quiescent(); err != nil {
		t.Error(err)
	}
}

// TestSessionOptimizerPanicReleasesPins: a panic inside the optimizer,
// after it has looked up (and so pinned) a cached artifact, must not
// leave the artifact pinned. At the parent commit the pins were
// released by a defer registered only after Optimize returned.
func TestSessionOptimizerPanicReleasesPins(t *testing.T) {
	cat, fs := testEnv(t)
	o := opt.DefaultOptions()
	o.Lint = true
	s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, Opt: &o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(scriptA); err != nil {
		t.Fatal(err)
	}
	panicked := func() (p any) {
		defer func() { p = recover() }()
		_, _ = s.RunContext(context.Background(), scriptB,
			RunOpts{WorkloadCovered: func(uint64) bool { panic("boom") }})
		return nil
	}()
	if panicked == nil {
		t.Fatal("the panicking lint hook was never reached")
	}
	if v := s.Cache().Describe(); len(v.Pinned) > 0 || len(v.Orphans) > 0 {
		t.Errorf("after an optimizer panic: pinned=%v orphans=%v", v.Pinned, v.Orphans)
	}
	assertQuiescent(t, s)

	warm, err := s.Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits == 0 {
		t.Error("the run after the panic did not hit the cache")
	}
	coldCat, coldFS := testEnv(t)
	cold, err := newTestSession(t, coldCat, coldFS, 0).Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "b3.out after panic", warm.Outputs["b3.out"], cold.Outputs["b3.out"])
}

// TestSessionFailedRunRemovesArtifacts: a run that fails after its
// admitted spool was persisted must not leave the file behind — no
// cache entry owns it, so nothing would ever evict it. At the parent
// commit the failure path returned without touching the run's pending
// artifact paths.
func TestSessionFailedRunRemovesArtifacts(t *testing.T) {
	cat, fs := testEnv(t)
	reg := obs.NewRegistry()
	s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats().Bytes
	rep, err := s.Run(scriptAFails)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want a division by zero", err)
	}
	for _, p := range fs.Paths() {
		if strings.HasPrefix(p, artifactDir) {
			t.Errorf("failed run left %s in the file store", p)
		}
	}
	if got := s.CacheStats(); got.Bytes != before || got.Entries != 0 {
		t.Errorf("failed run changed the cache: %+v", got)
	}
	assertQuiescent(t, s)

	// The failed run still has a record, filled as far as it got, and
	// the registry has exactly that record — additivity includes
	// failures.
	if rep == nil || rep.Err != err || rep.CacheMisses == 0 || rep.Admitted != 0 || rep.Outputs != nil {
		t.Fatalf("failed run's record = %+v", rep)
	}
	if rep.Metrics.RowsProcessed == 0 || rep.Opt.Phase1Tasks == 0 {
		t.Errorf("failed run's record lacks the work it did: %+v", rep)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["share.cache_misses"]; got != int64(rep.CacheMisses) {
		t.Errorf("share.cache_misses = %d, failed run counted %d", got, rep.CacheMisses)
	}
	if got := snap.Counters["exec.rows_processed"]; got != rep.Metrics.RowsProcessed {
		t.Errorf("exec.rows_processed = %d, failed run metered %d", got, rep.Metrics.RowsProcessed)
	}
	if got := snap.Hists["opt.optimize_us"].Count; got != 1 {
		t.Errorf("opt.optimize_us holds %d observations, want 1", got)
	}

	// The healthy script admits and is then hit as if nothing happened.
	repA, err := s.Run(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Admitted == 0 {
		t.Errorf("healthy run after the failure admitted nothing: %+v", repA)
	}
	repB, err := s.Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if repB.CacheHits == 0 {
		t.Error("warm run after the failure did not hit")
	}
	assertQuiescent(t, s)
}

// TestCompileIdentitySet: the compiled value carries the script id and
// a strictly sorted identity set, and runs like RunContext.
func TestCompileIdentitySet(t *testing.T) {
	cat, fs := testEnv(t)
	s := newTestSession(t, cat, fs, 0)
	c, err := s.Compile(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Subexprs) == 0 || c.Script != eventlog.ScriptID(scriptA) {
		t.Fatalf("compiled value: %+v", c)
	}
	// The set is ordered by canonical signature string, then
	// fingerprint; recover each identity's string from a fresh bind
	// identified as the compile stage identifies it.
	m, err := logical.BuildSource(scriptA, cat)
	if err != nil {
		t.Fatal(err)
	}
	core.IdentifyCommonSubexpressions(m)
	fps, sigs := core.Fingerprints(m), core.CanonicalSignatures(m)
	sigOf := map[Subexpr]string{}
	for _, g := range m.Groups() {
		sigOf[core.NewSubexpr(fps[g.ID], sigs[g.ID])] = sigs[g.ID]
	}
	for i := 1; i < len(c.Subexprs); i++ {
		a, b := c.Subexprs[i-1], c.Subexprs[i]
		if sa, sb := sigOf[a], sigOf[b]; sa > sb || (sa == sb && a.FP >= b.FP) {
			t.Errorf("identity set not strictly sorted at %d", i)
		}
	}
	rep, err := s.RunCompiled(context.Background(), c, RunOpts{})
	if err != nil || rep.Script != c.Script || rep.Admitted == 0 {
		t.Fatalf("RunCompiled: rep=%+v err=%v", rep, err)
	}
	assertQuiescent(t, s)
}
