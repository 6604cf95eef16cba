package exec_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/rules"
)

// optimizeWorkload builds and optimizes one builtin workload.
func optimizeSpillPlan(t *testing.T, name, script string, cse bool) (*opt.Result, *exec.FileStore) {
	t.Helper()
	w := bench.Small(name, script)
	opts := opt.DefaultOptions()
	opts.EnableCSE = cse
	opts.Rules = rules.SCOPEProfile()
	m, err := logical.BuildSource(w.Script, w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, w.FS
}

// TestSpillMeteringAndCleanup forces the S1 plan to spill and checks
// the spill ledger: spill events and bytes are metered, every byte
// written is read back exactly once, the scratch high-water mark
// respects the budget, and no spill scratch survives in the
// FileStore after the run.
func TestSpillMeteringAndCleanup(t *testing.T) {
	const budget = 512
	res, fs := optimizeSpillPlan(t, "S1", bench.ScriptS1, true)
	cl := testClusterFS(t, 5, fs)
	cl.MemBudget = budget
	if _, err := cl.Run(res.Plan); err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.Spills == 0 {
		t.Fatal("tiny budget forced no spills")
	}
	if m.SpillBytesWritten == 0 {
		t.Error("spills metered no bytes written")
	}
	if m.SpillBytesRead != m.SpillBytesWritten {
		t.Errorf("spill bytes read %d != written %d: scratch must be read back exactly once",
			m.SpillBytesRead, m.SpillBytesWritten)
	}
	if m.PeakResidentBytes == 0 || m.PeakResidentBytes > budget {
		t.Errorf("peak resident scratch %d, want within (0, %d]", m.PeakResidentBytes, budget)
	}
	for _, p := range fs.Paths() {
		if strings.HasPrefix(p, "tmp/spill/") {
			t.Errorf("spill scratch %q leaked into the FileStore", p)
		}
	}
}

// TestSpillDisabledWithoutBudget: with no budget nothing spills and
// no spill-side metrics appear.
func TestSpillDisabledWithoutBudget(t *testing.T) {
	res, fs := optimizeSpillPlan(t, "S3", bench.ScriptS3, true)
	cl := testClusterFS(t, 5, fs)
	if _, err := cl.Run(res.Plan); err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.Spills != 0 || m.SpillBytesWritten != 0 || m.SpillBytesRead != 0 {
		t.Errorf("unbudgeted run metered spills: %+v", m)
	}
}
