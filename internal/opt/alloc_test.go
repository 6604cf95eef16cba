package opt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
)

// TestOptimizeAllocCeiling holds the search to a third of the
// allocations it made when every alternative and enforcer variant was
// a plan.Node tree under three rendered key strings: 326,091 on LS1
// and 1,174,877 on S4 per bench.RunOne (bind + optimize, lint off), the
// configuration BenchmarkOptLS1 commits. The rework landed at about a
// fifth; the slack is for rule and cost-model changes, not for a
// return to per-alternative nodes or per-call key strings, either of
// which triples the count.
func TestOptimizeAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		w       *datagen.Workload
		ceiling float64
	}{
		{datagen.LargeScript1(), 110_000},
		{bench.Small("S4", bench.ScriptS4), 390_000},
	} {
		cfg := bench.DefaultConfig()
		cfg.Lint = false
		cfg.UsePaperBudgets = false
		cfg.OptWorkers = 1
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := bench.RunOne(c.w, true, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per bind + optimize (ceiling %.0f)", c.w.Name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocations per bind + optimize, ceiling %.0f", c.w.Name, allocs, c.ceiling)
		}
	}
}
