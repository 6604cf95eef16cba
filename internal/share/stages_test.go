package share_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/opt"
	"repro/internal/share"
)

func stageWorkloads() []*datagen.Workload {
	return []*datagen.Workload{
		bench.Small("S1", bench.ScriptS1),
		bench.Small("S2", bench.ScriptS2),
		bench.Small("S3", bench.ScriptS3),
		bench.Small("S4", bench.ScriptS4),
		bench.Small("Fig5", bench.ScriptFig5),
		datagen.LargeScript1(),
	}
}

func stageSession(t *testing.T, w *datagen.Workload) *share.Session {
	t.Helper()
	s, err := share.NewSession(share.Config{Catalog: w.Cat, FS: w.FS, Machines: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAdmittedIdentitiesAreCompiled: the compile stage's identity set
// is the cache's. Every artifact a cold run admits is keyed by an id
// in that run's Compiled.Subexprs. At the parent commit the set was
// minted on the raw memo, before Algorithm 1's spools changed the
// fingerprints of every ancestor of a shared group, and a cold S4 run
// admitted two artifacts the set did not name.
func TestAdmittedIdentitiesAreCompiled(t *testing.T) {
	admitted := 0
	for _, w := range stageWorkloads() {
		s := stageSession(t, w)
		c, err := s.Compile(w.Script)
		if err != nil {
			t.Fatal(err)
		}
		compiled := map[string]bool{}
		for _, id := range c.Subexprs {
			compiled[id.String()] = true
		}
		rep, err := s.RunCompiled(context.Background(), c, share.RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		admitted += rep.Admitted
		for _, e := range s.Cache().Describe().Entries {
			if !compiled[e.ID] {
				t.Errorf("%s: admitted artifact %s is not in the compiled identity set", w.Name, e.ID)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no run admitted an artifact; the test checks nothing")
	}
}

// TestCompiledIsSingleUse: a Compiled is consumed by its one
// optimization. At the parent commit a second RunCompiled of the same
// value succeeded with no cache hit, although the first run had
// admitted artifacts and a fresh compile of the script hits them.
func TestCompiledIsSingleUse(t *testing.T) {
	for _, w := range []*datagen.Workload{bench.Small("S1", bench.ScriptS1), bench.Small("S4", bench.ScriptS4)} {
		s := stageSession(t, w)
		c, err := s.Compile(w.Script)
		if err != nil {
			t.Fatal(err)
		}
		first, err := s.RunCompiled(context.Background(), c, share.RunOpts{})
		if err != nil || first.Admitted == 0 {
			t.Fatalf("%s: first run: admitted=%d err=%v", w.Name, first.Admitted, err)
		}
		again, err := s.RunCompiled(context.Background(), c, share.RunOpts{})
		if err == nil || again.Err != err {
			t.Errorf("%s: second run of one Compiled: err=%v report err=%v, want the refusal on both", w.Name, err, again.Err)
		}
		if err := s.Quiescent(); err != nil {
			t.Errorf("%s: after the refused run: %v", w.Name, err)
		}
		fresh, err := s.Run(w.Script)
		if err != nil || fresh.CacheHits == 0 {
			t.Errorf("%s: fresh compile: hits=%d err=%v, want hits", w.Name, fresh.CacheHits, err)
		}
	}

	// Racing optimizations of one Compiled: exactly one plans it.
	w := bench.Small("S4", bench.ScriptS4)
	c, err := share.Compile(w.Script, w.Cat, true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var planned atomic.Int32
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := share.Optimize(c, opt.DefaultOptions()); err == nil {
				planned.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := planned.Load(); n != 1 {
		t.Errorf("%d of 4 concurrent optimizations of one Compiled planned it, want 1", n)
	}
}

// TestOptimizeRefusesCSEMismatch: Algorithm 1 runs at compile time
// exactly when the framework is on, so a Compiled is optimized only
// under its own CSE setting, and a refused call does not consume it.
func TestOptimizeRefusesCSEMismatch(t *testing.T) {
	w := bench.Small("S1", bench.ScriptS1)
	for _, cse := range []bool{false, true} {
		c, err := share.Compile(w.Script, w.Cat, cse)
		if err != nil {
			t.Fatal(err)
		}
		o := opt.DefaultOptions()
		o.EnableCSE = !cse
		if _, err := share.Optimize(c, o); err == nil {
			t.Errorf("cse=%v: optimized under cse=%v", cse, !cse)
		}
		o.EnableCSE = cse
		if _, err := share.Optimize(c, o); err != nil {
			t.Errorf("cse=%v: the refused call consumed the Compiled: %v", cse, err)
		}
	}
}
