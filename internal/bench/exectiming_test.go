package bench

import "testing"

func TestExecTimings(t *testing.T) {
	rows, err := ExecTimings(5, []int{1, 2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 5 scripts × 2 plans × 2 worker counts.
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	sim := map[string]float64{}
	for _, r := range rows {
		if !r.Correct {
			t.Errorf("%s %s workers=%d: outputs differ from the conventional plan's", r.Script, r.Plan, r.Workers)
		}
		if r.Wall <= 0 {
			t.Errorf("%s %s workers=%d: wall clock not measured", r.Script, r.Plan, r.Workers)
		}
		// Metered work — and so simulated time — must not depend on
		// the worker-pool width.
		k := r.Script + "/" + r.Plan
		if prev, ok := sim[k]; ok && prev != r.SimSec {
			t.Errorf("%s: simulated seconds vary with workers: %v vs %v", k, prev, r.SimSec)
		}
		sim[k] = r.SimSec
	}
	if FormatExec(rows) == "" {
		t.Error("FormatExec produced nothing")
	}
}
