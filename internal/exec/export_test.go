package exec

// UseRowOracle switches c to the row operators (rowops_test.go), the
// reference the differential matrix compares the kernels against. It
// lives in a _test.go file, as does the oracle, so no non-test build
// can reach the row path; both package exec and package exec_test
// tests can.
func (c *Cluster) UseRowOracle() { c.oracle = (*runner).applyRow }
