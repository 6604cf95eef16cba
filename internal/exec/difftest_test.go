package exec_test

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/exec"
)

// TestDifferential runs the differential matrix (internal/difftest)
// with the row operators (rowops_test.go) as the kernels' oracle. Replay one
// cell with -run 'TestDifferential/S4/cse=on/rules=scope/workers=8/budget=512'.
func TestDifferential(t *testing.T) {
	difftest.Run(t, (*exec.Cluster).UseRowOracle)
}
