package exec

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
)

func TestRangePartitionColocatesAndOrders(t *testing.T) {
	fs := NewFileStore()
	fs.Put("t.log", smallTable())
	c := testCluster(t, 3, fs)
	schema := smallTable().Schema
	extract := &plan.Node{Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema}
	order := props.NewOrdering("B", "A")
	p := &plan.Node{
		Op:       &relop.Repartition{To: props.RangePartitioning(order)},
		Schema:   schema,
		Children: []*plan.Node{extract},
	}
	out := mustRunRaw(t, c, p)
	parts := partsOf(out)
	// Equal (B,A) keys must share a partition.
	where := map[string]int{}
	for m, part := range parts {
		for _, row := range part {
			k := row[1].String() + "|" + row[0].String()
			if prev, ok := where[k]; ok && prev != m {
				t.Fatalf("key %s split across machines %d and %d", k, prev, m)
			}
			where[k] = m
		}
	}
	// Partitions must be ordered: every key in partition i sorts
	// before every key in partition i+1.
	var lastMax relop.Row
	for m := 0; m < 3; m++ {
		for _, row := range parts[m] {
			if lastMax != nil {
				cb := lastMax[1].Compare(row[1])
				if cb > 0 {
					t.Fatalf("partition order violated: machine boundary B=%v after B=%v", row[1], lastMax[1])
				}
			}
		}
		// Track the max key of this partition (scan all rows).
		for _, row := range parts[m] {
			if lastMax == nil || row[1].Compare(lastMax[1]) > 0 ||
				(row[1].Compare(lastMax[1]) == 0 && row[0].Compare(lastMax[0]) > 0) {
				lastMax = row
			}
		}
	}
	// All rows survive.
	if out.rows() != int64(len(smallTable().Rows)) {
		t.Errorf("rows = %d", out.rows())
	}
}

func TestRangePartitionDescending(t *testing.T) {
	fs := NewFileStore()
	fs.Put("t.log", smallTable())
	c := testCluster(t, 2, fs)
	schema := smallTable().Schema
	extract := &plan.Node{Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema}
	order := props.Ordering{{Col: "D", Desc: true}}
	p := &plan.Node{
		Op:       &relop.Repartition{To: props.RangePartitioning(order)},
		Schema:   schema,
		Children: []*plan.Node{extract},
	}
	parts := partsOf(mustRunRaw(t, c, p))
	// With a descending key, partition 0 holds the LARGEST D values.
	min0, max1 := int64(1<<62), int64(-1<<62)
	for _, row := range parts[0] {
		if row[3].I < min0 {
			min0 = row[3].I
		}
	}
	for _, row := range parts[1] {
		if row[3].I > max1 {
			max1 = row[3].I
		}
	}
	if len(parts[0]) > 0 && len(parts[1]) > 0 && min0 < max1 {
		t.Errorf("descending ranges violated: part0 min %d < part1 max %d", min0, max1)
	}
}

func TestRangePartitionMissingColumn(t *testing.T) {
	fs := NewFileStore()
	fs.Put("t.log", smallTable())
	c := testCluster(t, 2, fs)
	schema := smallTable().Schema
	extract := &plan.Node{Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema}
	p := &plan.Node{
		Op:       &relop.Repartition{To: props.RangePartitioning(props.NewOrdering("Z"))},
		Schema:   schema,
		Children: []*plan.Node{extract},
	}
	r, finish := c.newRunner(context.Background())
	defer finish()
	if _, err := r.exec(p, r.span); err == nil {
		t.Error("range over missing column should fail")
	}
}

// TestRangeRoutingMatchesOracle: the kernels' native range routing
// sends every row where the row oracle's rangeDest does, on a key that
// mixes kinds (int 2 and float 2 render alike, so they are one key),
// repeats keys and, in the second ordering, leads with a descending key.
func TestRangeRoutingMatchesOracle(t *testing.T) {
	schema := relop.Schema{{Name: "K", Type: relop.TInt}, {Name: "V", Type: relop.TInt}}
	keys := []relop.Value{relop.IntVal(2), relop.FloatVal(2), relop.FloatVal(1.5), relop.StringVal("a"), relop.IntVal(-3), relop.IntVal(9)}
	tbl := &Table{Schema: schema}
	for i := 0; i < 40; i++ {
		tbl.Rows = append(tbl.Rows, relop.Row{keys[i*7%len(keys)], relop.IntVal(int64(i % 3))})
	}
	for _, order := range []props.Ordering{props.NewOrdering("K"), {{Col: "V", Desc: true}, {Col: "K"}}} {
		var got [2][][]relop.Row
		for i := range got {
			fs := NewFileStore()
			fs.Put("t.log", tbl)
			c := testCluster(t, 4, fs)
			if i == 1 {
				c.UseRowOracle()
			}
			extract := &plan.Node{Op: &relop.PhysExtract{Path: "t.log", Columns: schema}, Schema: schema}
			got[i] = partsOf(mustRunRaw(t, c, &plan.Node{
				Op:       &relop.Repartition{To: props.RangePartitioning(order)},
				Schema:   schema,
				Children: []*plan.Node{extract},
			}))
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("range(%s): kernels routed %v, the row oracle %v", order.Key(), got[0], got[1])
		}
	}
}
