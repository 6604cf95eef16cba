package exec_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/rules"
	"repro/internal/share"
)

// The executor's correctness contract: against the row oracle
// (rowops.go) the production kernels must be bit-identical — same
// output tables (values AND order), same Core metered totals, same
// deterministic trace tree — on every plan, at any worker width, and
// even when a memory budget forces them to spill. These tests enforce
// the contract differentially over the builtin evaluation scripts, the
// fuzz corpus, and warm plans that read session-cached artifacts.

// runOracleDiff executes one plan on a fresh traced cluster over fs:
// on the row oracle when oracle is set, on the production path
// otherwise.
func runOracleDiff(t *testing.T, fs *exec.FileStore, root *plan.Node, oracle bool, workers int, budget int64) (map[string]*exec.Table, exec.Metrics, string) {
	t.Helper()
	cl := testClusterFS(t, 5, fs)
	if oracle {
		cl.UseRowOracle()
	}
	cl.Workers = workers
	cl.MemBudget = budget
	cl.Trace = obs.NewTracer()
	got, err := cl.Run(root)
	if err != nil {
		t.Fatalf("oracle=%v workers=%d budget=%d: %v", oracle, workers, budget, err)
	}
	return got, cl.Metrics(), cl.Trace.TreeString()
}

// diffOracle checks production ≡ oracle on one plan at 1 and 8
// workers. The budget applies to the production runs, whose metrics it
// returns; the oracle never spills.
func diffOracle(t *testing.T, name string, fs *exec.FileStore, root *plan.Node, budget int64) []exec.Metrics {
	t.Helper()
	rowOut, rowM, rowTrace := runOracleDiff(t, fs, root, true, 1, 0)
	var prod []exec.Metrics
	for _, workers := range []int{1, 8} {
		vecOut, vecM, vecTrace := runOracleDiff(t, fs, root, false, workers, budget)
		compareOracleRuns(t, name, workers, rowOut, vecOut, rowM, vecM, rowTrace, vecTrace)
		if vecM.BatchesProcessed == 0 {
			t.Errorf("%s workers=%d: production run processed no batches", name, workers)
		}
		prod = append(prod, vecM)
	}
	return prod
}

// optimizeDiff optimizes a workload's script for the differential
// runs.
func optimizeDiff(t *testing.T, w *datagen.Workload, opts opt.Options) *opt.Result {
	t.Helper()
	m, err := logical.BuildSource(w.Script, w.Cat)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	res, err := opt.Optimize(m, opts)
	if err != nil {
		t.Fatalf("%s cse=%v: %v", w.Name, opts.EnableCSE, err)
	}
	return res
}

func compareOracleRuns(t *testing.T, name string, workers int, rowOut, vecOut map[string]*exec.Table, rowM, vecM exec.Metrics, rowTrace, vecTrace string) {
	t.Helper()
	if len(vecOut) != len(rowOut) {
		t.Fatalf("%s workers=%d: production produced %d outputs, oracle %d", name, workers, len(vecOut), len(rowOut))
	}
	for path, rt := range rowOut {
		vt := vecOut[path]
		if vt == nil {
			t.Fatalf("%s workers=%d: production missing output %q", name, workers, path)
		}
		// Exact equality, not canonicalized: the two must agree on row
		// order too.
		if len(vt.Rows) != len(rt.Rows) {
			t.Fatalf("%s workers=%d: %q has %d rows, oracle %d", name, workers, path, len(vt.Rows), len(rt.Rows))
		}
		for i := range rt.Rows {
			if len(vt.Rows[i]) != len(rt.Rows[i]) {
				t.Fatalf("%s workers=%d: %q row %d width differs", name, workers, path, i)
			}
			for j := range rt.Rows[i] {
				// Strict struct equality, not Compare: int 2 and float
				// 2.0 must not pass for each other.
				if vt.Rows[i][j] != rt.Rows[i][j] {
					t.Fatalf("%s workers=%d: %q row %d = %v, oracle %v", name, workers, path, i, vt.Rows[i], rt.Rows[i])
				}
			}
		}
	}
	if vecM.Core() != rowM.Core() {
		t.Errorf("%s workers=%d: production core metrics %+v differ from oracle %+v", name, workers, vecM.Core(), rowM.Core())
	}
	if vecTrace != rowTrace {
		t.Errorf("%s workers=%d: production trace tree differs from oracle\nproduction:\n%s\noracle:\n%s", name, workers, vecTrace, rowTrace)
	}
}

// TestEngineDiffWorkloads runs the S1–S4 and Fig5 scripts under both
// optimization modes on the production path and the oracle.
func TestEngineDiffWorkloads(t *testing.T) {
	for _, w := range builtinWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, cse := range []bool{false, true} {
				opts := opt.DefaultOptions()
				opts.EnableCSE = cse
				opts.Rules = rules.SCOPEProfile()
				diffOracle(t, w.Name, w.FS, optimizeDiff(t, w, opts).Plan, 0)
			}
		})
	}
}

// TestEngineDiffFuzz sweeps the exec fuzz corpus differentially:
// random scripts, both optimization modes, production versus oracle.
func TestEngineDiffFuzz(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		w := datagen.RandomWorkload(seed, 8+int(seed%7))
		for _, cse := range []bool{false, true} {
			opts := opt.DefaultOptions()
			opts.EnableCSE = cse
			diffOracle(t, w.Script, w.FS, optimizeDiff(t, w, opts).Plan, 0)
		}
	}
}

// TestEngineDiffForcedSpill reruns the builtin workloads with a tiny
// memory budget, so every sort buffer, aggregation table, and join
// build spills. Spilled execution must still be bit-identical to the
// oracle — spilling may only add spill-side metrics, which Core()
// excludes.
func TestEngineDiffForcedSpill(t *testing.T) {
	const budget = 512 // bytes per partition task: everything spills
	for _, w := range builtinWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, cse := range []bool{false, true} {
				opts := opt.DefaultOptions()
				opts.EnableCSE = cse
				opts.Rules = rules.SCOPEProfile()
				for _, m := range diffOracle(t, w.Name, w.FS, optimizeDiff(t, w, opts).Plan, budget) {
					if m.Spills == 0 {
						t.Errorf("cse=%v: %d-byte budget forced no spills", cse, budget)
					}
					if m.PeakResidentBytes > budget {
						t.Errorf("cse=%v: peak resident %d exceeds budget %d", cse, m.PeakResidentBytes, budget)
					}
				}
			}
		})
	}
}

// TestEngineDiffWarmCacheScan covers the path warm service traffic
// takes: S1 and S2 run cold through a session, which persists their
// shared subexpressions; re-optimizing against the session's cache
// yields plans that read those artifacts through CacheScan. Production
// and oracle must agree on them too — tables, Core meters (CacheReads
// and CacheBytesRead included) and trace trees — in memory and under a
// budget small enough to spill.
func TestEngineDiffWarmCacheScan(t *testing.T) {
	env := bench.Small("warm", "")
	sess, err := share.NewSession(share.Config{Catalog: env.Cat, FS: env.FS, Machines: 5})
	if err != nil {
		t.Fatal(err)
	}
	scripts := []struct{ name, src string }{{"S1", bench.ScriptS1}, {"S2", bench.ScriptS2}}
	for _, s := range scripts {
		if _, err := sess.Run(s.src); err != nil {
			t.Fatalf("%s cold: %v", s.name, err)
		}
	}
	opts := sess.Options()
	opts.Cache = sess.Cache()
	for _, s := range scripts {
		w := &datagen.Workload{Name: s.name + "-warm", Script: s.src, Cat: env.Cat}
		root := optimizeDiff(t, w, opts).Plan
		if len(plan.FindAll(root, relop.KindCacheScan)) == 0 {
			t.Fatalf("%s: warm plan has no CacheScan", w.Name)
		}
		for _, budget := range []int64{0, 512} {
			for _, m := range diffOracle(t, w.Name, env.FS, root, budget) {
				if m.CacheReads == 0 || m.CacheBytesRead == 0 {
					t.Errorf("%s budget=%d: warm run metered no cache reads: %+v", w.Name, budget, m)
				}
			}
		}
	}
}
