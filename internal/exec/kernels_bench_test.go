package exec_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/rules"
)

// Committed microbenchmarks for the kernels against the row oracle:
//
//	go test -bench 'Row|Vec' -benchtime 3x ./internal/exec/
//
// Each benchmark runs one kernel pipeline end to end on a warm file
// store: Vec* on the production path, Row* on the oracle, so the pair
// reproduces the kernel speed-up ratio (EXPERIMENTS E24) on demand
// and a single kernel can be profiled in isolation with -cpuprofile.
// The input profile is K (near-unique join/sort key), G (1024-way
// group key), W (4-way reduce key for the tails), V (measure); every
// pipeline funnels into a tiny aggregate so the wall clock is the
// kernel under test, not output materialization.

const benchKernelRows = 100_000

func benchWorkload() *datagen.Workload {
	return datagen.SmallWorkloadCols("vec", "", benchKernelRows, 1, 7, []datagen.ColumnSpec{
		{Name: "K", Distinct: benchKernelRows},
		{Name: "G", Distinct: 1024},
		{Name: "W", Distinct: 4},
		{Name: "V", Distinct: 1 << 30},
	})
}

func benchScript(kernel string) string {
	switch kernel {
	case "scan":
		return `
R0 = EXTRACT K,G,W,V FROM "test.log" USING LogExtractor;
R = SELECT W, (K+G)*(K+G) as X, K*3-G as Y, V+K as Z FROM R0;
S = SELECT W, Sum(X) as SX, Sum(Y) as SY, Sum(Z) as SZ FROM R GROUP BY W;
OUTPUT S TO "o1";
`
	case "filter":
		return `
R0 = EXTRACT K,G,W,V FROM "test.log" USING LogExtractor;
R = SELECT W, V FROM R0 WHERE (K+G)*(K+G) > 1000000 AND K+G < 100000000 AND G != 512;
S = SELECT W, Sum(V) as SV FROM R GROUP BY W;
OUTPUT S TO "o1";
`
	case "agg":
		return `
R0 = EXTRACT K,G,W,V FROM "test.log" USING LogExtractor;
R = SELECT G, Sum(V) as SV, Count() as N FROM R0 GROUP BY G;
OUTPUT R TO "o1";
`
	default: // join
		return `
R0 = EXTRACT K,G,V FROM "test.log" USING LogExtractor;
T0 = EXTRACT K,W FROM "test2.log" USING LogExtractor;
J = SELECT W, V FROM R0, T0 WHERE R0.K = T0.K;
S = SELECT W, Sum(V) as SV, Count() as N FROM J GROUP BY W;
OUTPUT S TO "o1";
`
	}
}

func benchKernel(b *testing.B, kernel string, oracle bool) {
	w := benchWorkload()
	m, err := logical.BuildSource(benchScript(kernel), w.Cat)
	if err != nil {
		b.Fatal(err)
	}
	opts := opt.DefaultOptions()
	opts.EnableCSE = true
	opts.Rules = rules.SCOPEProfile()
	res, err := opt.Optimize(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		cl, err := exec.NewCluster(5, w.FS)
		if err != nil {
			b.Fatal(err)
		}
		if oracle {
			cl.UseRowOracle()
		}
		if _, err := cl.Run(res.Plan); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the scan cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkRowScan(b *testing.B)   { benchKernel(b, "scan", true) }
func BenchmarkVecScan(b *testing.B)   { benchKernel(b, "scan", false) }
func BenchmarkRowFilter(b *testing.B) { benchKernel(b, "filter", true) }
func BenchmarkVecFilter(b *testing.B) { benchKernel(b, "filter", false) }
func BenchmarkRowAgg(b *testing.B)    { benchKernel(b, "agg", true) }
func BenchmarkVecAgg(b *testing.B)    { benchKernel(b, "agg", false) }
func BenchmarkRowJoin(b *testing.B)   { benchKernel(b, "join", true) }
func BenchmarkVecJoin(b *testing.B)   { benchKernel(b, "join", false) }
