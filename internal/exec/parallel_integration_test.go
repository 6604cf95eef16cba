package exec_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/rules"
)

// testClusterFS builds a cluster over an existing file store or fails
// the test.
func testClusterFS(t testing.TB, machines int, fs *exec.FileStore) *exec.Cluster {
	t.Helper()
	c, err := exec.NewCluster(machines, fs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSpoolSingleFlightUnderParallelism runs the S1 CSE plan — one
// shared spool, two consumers in independent sequence branches that
// now execute concurrently — and checks the spool still materializes
// exactly once.
func TestSpoolSingleFlightUnderParallelism(t *testing.T) {
	w := bench.Small("S1", bench.ScriptS1)
	opts := opt.DefaultOptions()
	opts.EnableCSE = true
	opts.Rules = rules.SCOPEProfile()
	m, err := logical.BuildSource(w.Script, w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		cl := testClusterFS(t, 5, w.FS)
		cl.Workers = workers
		if _, err := cl.Run(res.Plan); err != nil {
			t.Fatal(err)
		}
		mm := cl.Metrics()
		if mm.SpoolMaterializations != 1 {
			t.Errorf("workers=%d: spool materialized %d times, want once (single-flight)", workers, mm.SpoolMaterializations)
		}
		if mm.SpoolReads != 2 {
			t.Errorf("workers=%d: spool reads = %d, want 2", workers, mm.SpoolReads)
		}
	}
}
