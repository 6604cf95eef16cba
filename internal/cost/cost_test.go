package cost

import (
	"testing"

	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

func rel(rows int64, distinct map[string]int64) stats.Relation {
	return stats.Relation{Rows: rows, RowBytes: 32, Distinct: distinct}
}

func TestNewModelDefaults(t *testing.T) {
	m := NewModel(Cluster{})
	d := DefaultCluster()
	if m.C != d {
		t.Errorf("zero cluster should default: %+v", m.C)
	}
	m2 := NewModel(Cluster{Machines: 10})
	if m2.C.Machines != 10 || m2.C.DiskBytesPerSec != d.DiskBytesPerSec {
		t.Errorf("partial defaults wrong: %+v", m2.C)
	}
}

func TestParallelismCaps(t *testing.T) {
	m := NewModel(DefaultCluster())
	r := rel(10_000_000, map[string]int64{"A": 1000, "B": 7, "C": 5000})
	if got := m.Parallelism(props.SerialPartitioning(), r); got != 1 {
		t.Errorf("serial parallelism = %v", got)
	}
	if got := m.Parallelism(props.RandomPartitioning(), r); got != 100 {
		t.Errorf("random parallelism = %v", got)
	}
	// Hash on a low-cardinality column is capped by its distincts:
	// this is what makes partitioning on {B} locally suboptimal.
	if got := m.Parallelism(props.HashPartitioning(props.NewColSet("B")), r); got != 7 {
		t.Errorf("hash{B} parallelism = %v, want 7", got)
	}
	if got := m.Parallelism(props.HashPartitioning(props.NewColSet("A", "B", "C")), r); got != 100 {
		t.Errorf("hash{A,B,C} parallelism = %v, want 100 (cap)", got)
	}
	if got := m.Parallelism(props.BroadcastPartitioning(), r); got != 100 {
		t.Errorf("broadcast parallelism = %v", got)
	}
}

func TestRepartitionDominatesCompute(t *testing.T) {
	// The premise of the paper's plans: exchanges are far more
	// expensive than local aggregation over the same rows.
	m := NewModel(DefaultCluster())
	r := rel(100_000_000, map[string]int64{"A": 1000})
	random := props.RandomPartitioning()
	reCost := m.OpCost(&relop.Repartition{To: props.HashPartitioning(props.NewColSet("A"))}, r, []stats.Relation{r}, []props.Partitioning{random})
	aggCost := m.OpCost(&relop.StreamAgg{Keys: []string{"A"}}, rel(1000, nil), []stats.Relation{r}, []props.Partitioning{random})
	if reCost <= aggCost {
		t.Errorf("repartition (%v) should dominate stream agg (%v)", reCost, aggCost)
	}
}

func TestRepartitionToFewPartitionsCostsMore(t *testing.T) {
	// Receiving on 7 machines bottlenecks on receive bandwidth.
	m := NewModel(DefaultCluster())
	r := rel(100_000_000, map[string]int64{"B": 7, "A": 100_000})
	random := props.RandomPartitioning()
	toB := m.OpCost(&relop.Repartition{To: props.HashPartitioning(props.NewColSet("B"))}, r, []stats.Relation{r}, []props.Partitioning{random})
	toA := m.OpCost(&relop.Repartition{To: props.HashPartitioning(props.NewColSet("A"))}, r, []stats.Relation{r}, []props.Partitioning{random})
	if toB <= toA {
		t.Errorf("repartition to 7 receivers (%v) should cost more than to 100 (%v)", toB, toA)
	}
}

func TestMergeReceiveCostsExtra(t *testing.T) {
	m := NewModel(DefaultCluster())
	r := rel(10_000_000, map[string]int64{"B": 1000})
	random := props.RandomPartitioning()
	to := props.HashPartitioning(props.NewColSet("B"))
	plain := m.OpCost(&relop.Repartition{To: to}, r, []stats.Relation{r}, []props.Partitioning{random})
	merged := m.OpCost(&relop.Repartition{To: to, MergeOrder: props.NewOrdering("B")}, r, []stats.Relation{r}, []props.Partitioning{random})
	if merged <= plain {
		t.Errorf("merge receive (%v) should cost more than plain (%v)", merged, plain)
	}
}

func TestBroadcastScalesWithMachines(t *testing.T) {
	m := NewModel(DefaultCluster())
	r := rel(1_000_000, nil)
	random := props.RandomPartitioning()
	bc := m.OpCost(&relop.Repartition{To: props.BroadcastPartitioning()}, r, []stats.Relation{r}, []props.Partitioning{random})
	hash := m.OpCost(&relop.Repartition{To: props.HashPartitioning(props.NewColSet("A"))}, r, []stats.Relation{r}, []props.Partitioning{random})
	if bc <= hash {
		t.Errorf("broadcast (%v) should cost more than hash exchange (%v)", bc, hash)
	}
}

func TestSerialExecutionSlower(t *testing.T) {
	m := NewModel(DefaultCluster())
	r := rel(50_000_000, nil)
	sortOp := &relop.Sort{Order: props.NewOrdering("A")}
	parCost := m.OpCost(sortOp, r, []stats.Relation{r}, []props.Partitioning{props.RandomPartitioning()})
	serCost := m.OpCost(sortOp, r, []stats.Relation{r}, []props.Partitioning{props.SerialPartitioning()})
	if serCost <= parCost*10 {
		t.Errorf("serial sort (%v) should be much slower than parallel (%v)", serCost, parCost)
	}
}

func TestHashAggCostsMoreThanStreamAgg(t *testing.T) {
	m := NewModel(DefaultCluster())
	in := rel(10_000_000, nil)
	out := rel(1000, nil)
	random := []props.Partitioning{props.RandomPartitioning()}
	ins := []stats.Relation{in}
	stream := m.OpCost(&relop.StreamAgg{Keys: []string{"A"}}, out, ins, random)
	hash := m.OpCost(&relop.HashAgg{Keys: []string{"A"}}, out, ins, random)
	if hash <= stream {
		t.Errorf("hash agg (%v) should cost more per row than stream agg (%v)", hash, stream)
	}
}

func TestSortPlusStreamCanBeatHashAgg(t *testing.T) {
	// With a pre-sorted input, stream agg alone must beat hash agg;
	// the optimizer's choice between Sort+StreamAgg and HashAgg is
	// then a real tradeoff decided by the sort cost.
	m := NewModel(DefaultCluster())
	in := rel(10_000_000, nil)
	out := rel(1000, nil)
	random := []props.Partitioning{props.RandomPartitioning()}
	ins := []stats.Relation{in}
	stream := m.OpCost(&relop.StreamAgg{Keys: []string{"A"}}, out, ins, random)
	sort := m.OpCost(&relop.Sort{Order: props.NewOrdering("A")}, in, ins, random)
	hash := m.OpCost(&relop.HashAgg{Keys: []string{"A"}}, out, ins, random)
	if stream >= hash {
		t.Errorf("bare stream (%v) should beat hash (%v)", stream, hash)
	}
	if sort <= 0 {
		t.Error("sort must have positive cost")
	}
}

func TestStageOverheadAndScale(t *testing.T) {
	c := DefaultCluster()
	c.StageOverhead = 100
	m := NewModel(c)
	tiny := rel(1, nil)
	got := m.OpCost(&relop.PhysSequence{}, tiny, nil, nil)
	if got < 100 {
		t.Errorf("stage overhead not applied: %v", got)
	}
	c.Scale = 10
	m2 := NewModel(c)
	if got2 := m2.OpCost(&relop.PhysSequence{}, tiny, nil, nil); got2 < got*9.99 {
		t.Errorf("scale not applied: %v vs %v", got2, got)
	}
}

func TestSpoolAndReadCosts(t *testing.T) {
	m := NewModel(DefaultCluster())
	r := rel(10_000_000, map[string]int64{"B": 50})
	p := props.HashPartitioning(props.NewColSet("B"))
	spool := m.OpCost(&relop.PhysSpool{}, r, []stats.Relation{r}, []props.Partitioning{p})
	read := m.SpoolReadCost(r, p)
	if spool <= 0 || read <= 0 {
		t.Errorf("spool costs must be positive: write=%v read=%v", spool, read)
	}
	if read >= spool*2 {
		t.Errorf("a spool read (%v) should be comparable to the write (%v)", read, spool)
	}
	if m.RepartitionCost(r) <= 0 {
		t.Error("RepartitionCost must be positive")
	}
}

func TestUnknownOperatorStillPriced(t *testing.T) {
	m := NewModel(DefaultCluster())
	got := m.OpCost(&relop.Extract{}, rel(10, nil), []stats.Relation{rel(10, nil)}, []props.Partitioning{props.RandomPartitioning()})
	if got <= 0 {
		t.Errorf("fallback pricing = %v", got)
	}
}

// TestCostMonotonicity: per-operator costs never decrease when the
// input grows, for every operator the optimizer prices.
func TestCostMonotonicity(t *testing.T) {
	m := NewModel(DefaultCluster())
	random := props.RandomPartitioning()
	ops := []relop.Operator{
		&relop.PhysExtract{Path: "t"},
		&relop.Repartition{To: props.HashPartitioning(props.NewColSet("A"))},
		&relop.Repartition{To: props.RangePartitioning(props.NewOrdering("A"))},
		&relop.Sort{Order: props.NewOrdering("A")},
		&relop.StreamAgg{Keys: []string{"A"}},
		&relop.HashAgg{Keys: []string{"A"}},
		&relop.PhysSpool{},
		&relop.PhysOutput{Path: "o"},
		&relop.PhysFilter{Pred: relop.Lit(relop.IntVal(1))},
		&relop.PhysProject{},
		&relop.PhysUnion{},
	}
	for _, op := range ops {
		prev := 0.0
		for _, rows := range []int64{1_000, 100_000, 10_000_000, 1_000_000_000} {
			r := rel(rows, map[string]int64{"A": rows / 10})
			out := r
			if op.Kind() == relop.KindStreamAgg || op.Kind() == relop.KindHashAgg {
				out = rel(rows/10, nil)
			}
			ins := []stats.Relation{r}
			parts := []props.Partitioning{random}
			if op.Arity() == 0 {
				ins, parts = nil, nil
			}
			c := m.OpCost(op, out, ins, parts)
			if c < prev {
				t.Errorf("%T: cost decreased with input growth: %v -> %v at rows=%d", op, prev, c, rows)
			}
			prev = c
		}
	}
}

// TestJoinCostMonotonicity covers the binary operators.
func TestJoinCostMonotonicity(t *testing.T) {
	m := NewModel(DefaultCluster())
	p := props.HashPartitioning(props.NewColSet("A"))
	for _, op := range []relop.Operator{
		&relop.SortMergeJoin{LeftKeys: []string{"A"}, RightKeys: []string{"A"}},
		&relop.HashJoin{LeftKeys: []string{"A"}, RightKeys: []string{"A"}},
	} {
		prev := 0.0
		for _, rows := range []int64{1_000, 1_000_000, 1_000_000_000} {
			l := rel(rows, map[string]int64{"A": rows / 10})
			r := rel(rows/2, map[string]int64{"A": rows / 20})
			c := m.OpCost(op, rel(rows, nil), []stats.Relation{l, r}, []props.Partitioning{p, p})
			if c < prev {
				t.Errorf("%T: cost decreased: %v -> %v", op, prev, c)
			}
			prev = c
		}
	}
}
