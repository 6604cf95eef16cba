package exec

// UseRowOracle switches c to the row operators (rowops.go), the
// reference the oracle-diff tests compare the kernels against. It
// lives in a _test.go file so no non-test build can reach the row
// path; both package exec and package exec_test tests can.
func (c *Cluster) UseRowOracle() { c.rowOracle = true }
