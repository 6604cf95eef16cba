package exec

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
)

// layoutTable is 60 rows over (A, B, D); A takes 30 values, each twice.
func layoutTable() *Table {
	t := &Table{Schema: relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt}, {Name: "D", Type: relop.TInt},
	}}
	for i := int64(0); i < 60; i++ {
		t.Rows = append(t.Rows, relop.Row{relop.IntVal(i % 30), relop.IntVal(i % 7), relop.IntVal(i * 37 % 61)})
	}
	return t
}

// TestCacheScanAttachesSpoolPartitions: a CacheScan over a persisted
// spool yields, partition for partition and row for row, what the
// spool materialized — for every layout a session admits, with and
// without a recorded order, on the kernels and on the row oracle. The
// spools filter after their exchange, so neither a range layout's
// boundaries nor a round-robin layout's placement can be re-derived
// from the gathered rows; only attaching the stored partitions
// reproduces them. Reading the artifact at another machine count is an
// error, not a redistribution.
func TestCacheScanAttachesSpoolPartitions(t *testing.T) {
	const machines = 3
	schema := layoutTable().Schema
	layouts := []props.Partitioning{
		props.HashPartitioning(props.NewColSet("B")),
		props.RangePartitioning(props.NewOrdering("A")),
		props.SerialPartitioning(),
		props.AnyPartitioning(),
	}
	keep := relop.Bin(relop.OpLt, relop.Col("A"), relop.Lit(relop.IntVal(15)))
	for _, part := range layouts {
		for _, order := range []props.Ordering{nil, props.NewOrdering("D")} {
			for _, oracle := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/order=%s/oracle=%v", part, order.Key(), oracle), func(t *testing.T) {
					in := &plan.Node{Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema}
					if !part.IsAny() {
						in = &plan.Node{Op: &relop.Repartition{To: part}, Schema: schema, Children: []*plan.Node{in}}
					}
					in = &plan.Node{Op: &relop.PhysFilter{Pred: keep}, Schema: schema, Children: []*plan.Node{in}}
					if !order.Empty() {
						in = &plan.Node{Op: &relop.Sort{Order: order}, Schema: schema, Children: []*plan.Node{in}}
					}
					spool := &plan.Node{Op: &relop.PhysSpool{}, Schema: schema, Group: 7, CtxKey: "c", Children: []*plan.Node{in}}
					scan := &plan.Node{Op: &relop.PhysCacheScan{
						Path: "__cache/a", Columns: schema, Part: part, Order: order,
					}, Schema: schema}

					fs := NewFileStore()
					fs.Put("t.log", layoutTable())
					c := testCluster(t, machines, fs)
					if oracle {
						c.UseRowOracle()
					}
					c.PersistSpools = map[plan.SpoolID]string{spool.SpoolID(): "__cache/a"}
					want := partsOf(mustRunRaw(t, c, spool))
					got := partsOf(mustRunRaw(t, c, scan))
					if len(got) != machines {
						t.Fatalf("CacheScan returned %d partitions, want %d", len(got), machines)
					}
					for m := range want {
						if len(got[m]) != len(want[m]) {
							t.Fatalf("partition %d: %d rows, spool materialized %d", m, len(got[m]), len(want[m]))
						}
						for i := range want[m] {
							for j := range want[m][i] {
								if got[m][i][j] != want[m][i][j] {
									t.Fatalf("partition %d row %d = %v, spool materialized %v", m, i, got[m][i], want[m][i])
								}
							}
						}
					}

					other := testCluster(t, machines+1, fs)
					if oracle {
						other.UseRowOracle()
					}
					if _, err := other.Run(scan); err == nil {
						t.Errorf("reading a %d-partition artifact on %d machines succeeded", machines, machines+1)
					}
				})
			}
		}
	}
}
