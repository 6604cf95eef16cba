package exec_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/rules"
)

// TestSimulatorAgreesWithCostModel checks the estimator's shape on
// every evaluation script: the plan the optimizer says is cheaper
// must also do less metered work in the simulator.
func TestSimulatorAgreesWithCostModel(t *testing.T) {
	for _, sc := range []struct{ name, src string }{
		{"S1", datagen.ScriptS1},
		{"S2", datagen.ScriptS2},
		{"S3", datagen.ScriptS3},
		{"S4", datagen.ScriptS4},
		{"Fig5", datagen.ScriptFig5},
	} {
		t.Run(sc.name, func(t *testing.T) {
			w := datagen.SmallWorkload(sc.name, sc.src, 20_000, 100_000, 11)
			run := func(cse bool) (float64, exec.Metrics) {
				opts := opt.DefaultOptions()
				opts.EnableCSE = cse
				opts.Rules = rules.SCOPEProfile()
				opts.Cluster.Machines = 5
				m, err := logical.BuildSource(sc.src, w.Cat)
				if err != nil {
					t.Fatal(err)
				}
				res, err := opt.Optimize(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				cl := testClusterFS(t, 5, w.FS)
				if _, err := cl.Run(res.Plan); err != nil {
					t.Fatal(err)
				}
				return res.Cost, cl.Metrics()
			}
			convCost, convM := run(false)
			cseCost, cseM := run(true)
			t.Logf("conv: cost=%.1f metrics=%+v", convCost, convM)
			t.Logf("cse:  cost=%.1f metrics=%+v", cseCost, cseM)
			if cseCost >= convCost {
				t.Fatalf("estimated: cse %v should beat conv %v", cseCost, convCost)
			}
			// The metered execution must agree on the ranking. The CSE
			// plan deliberately trades extra disk traffic (the spool
			// write plus per-consumer reads) for less network and CPU
			// work, so disk alone may grow; exchanges, network bytes,
			// and processed rows must all shrink.
			if cseM.NetBytes >= convM.NetBytes {
				t.Errorf("cse net %d should be below conv %d", cseM.NetBytes, convM.NetBytes)
			}
			if cseM.RowsProcessed >= convM.RowsProcessed {
				t.Errorf("cse rows %d should be below conv %d", cseM.RowsProcessed, convM.RowsProcessed)
			}
			if cseM.Exchanges >= convM.Exchanges {
				t.Errorf("cse exchanges %d should be below conv %d", cseM.Exchanges, convM.Exchanges)
			}
			if sc.name == "S1" && (cseM.SpoolMaterializations != 1 || cseM.SpoolReads != 2) {
				t.Errorf("cse spool metrics = %+v", cseM)
			}
		})
	}
}
