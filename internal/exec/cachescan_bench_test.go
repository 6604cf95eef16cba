package exec_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/rules"
	"repro/internal/share"
)

// BenchmarkCacheScan is the cost of one cache hit on the executor:
//
//	go test -run '^$' -bench CacheScan -benchmem ./internal/exec/
//
// S1 runs cold through an 8-machine session over warm-repeat-sized
// inputs (25,000 rows per table), which persists its shared
// aggregation; each iteration then executes S1's warm plan, whose
// CacheScan reads that hash-partitioned, sorted artifact, on a fresh
// 8-machine cluster over the session's file store. The session plans
// with the SCOPE rule profile: under the default rules S1's shared
// aggregation is a hash aggregation and its artifact is unsorted.
func BenchmarkCacheScan(b *testing.B) {
	const machines = 8
	w := datagen.SmallWorkloadCols("warm", bench.ScriptS1, 25_000, 1, 7, datagen.MicroScriptColumns())
	o := opt.DefaultOptions()
	o.Rules = rules.SCOPEProfile()
	sess, err := share.NewSession(share.Config{Catalog: w.Cat, FS: w.FS, Machines: machines, Opt: &o})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Run(w.Script); err != nil {
		b.Fatal(err)
	}
	m, err := logical.BuildSource(w.Script, w.Cat)
	if err != nil {
		b.Fatal(err)
	}
	opts := sess.Options()
	opts.Cache = sess.Cache()
	res, err := opt.Optimize(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	scans := plan.FindAll(res.Plan, relop.KindCacheScan)
	if len(scans) == 0 {
		b.Fatal("warm S1 plan has no CacheScan")
	}
	for _, n := range scans {
		op := n.Op.(*relop.PhysCacheScan)
		if op.Part.Kind != props.PartHash || op.Order.Empty() {
			b.Fatalf("CacheScan reads a %v artifact ordered %v, want hash-partitioned and sorted", op.Part, op.Order)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := exec.NewCluster(machines, w.FS)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Run(res.Plan); err != nil {
			b.Fatal(err)
		}
	}
}
