// Package cost implements the optimizer's cost model over a simulated
// shared-nothing cluster, standing in for SCOPE's cost model on
// Cosmos. Costs are abstract time units on the stage critical path:
// per-operator work divided by the operator's effective parallelism,
// plus a fixed per-stage scheduling overhead.
//
// Two modeling choices carry the paper's central tension:
//
//  1. The effective parallelism of an operator running on data
//     hash-partitioned on columns P is capped by the number of
//     distinct values of P. Repartitioning S1's shared result on {B}
//     (cheap for the consumers) may leave fewer machines busy than
//     repartitioning on {A,B,C} (locally optimal) — so neither choice
//     dominates, and only cost-based reconciliation at the LCA finds
//     the global optimum.
//
//  2. Exchanges (Repartition) move every byte across the network and
//     are the dominant cost, so a plan that executes a common
//     subexpression once but repartitions its result per consumer can
//     still lose to one that picks a single compromise partitioning.
package cost

import (
	"math"

	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

// Cluster describes the simulated cluster the cost model prices
// against.
type Cluster struct {
	// Machines is the number of worker machines.
	Machines int
	// DiskBytesPerSec is per-machine sequential disk bandwidth.
	DiskBytesPerSec float64
	// NetBytesPerSec is per-machine network bandwidth.
	NetBytesPerSec float64
	// RowCPU is the baseline per-row processing cost in cost units.
	RowCPU float64
	// StageOverhead is the fixed cost of scheduling one operator
	// stage on the cluster.
	StageOverhead float64
	// Scale multiplies all costs, for display calibration only.
	Scale float64
}

// DefaultCluster returns the cluster configuration used by the
// experiments: 100 machines with commodity disks and a shared network.
func DefaultCluster() Cluster {
	return Cluster{
		Machines:        100,
		DiskBytesPerSec: 100 << 20, // 100 MB/s
		NetBytesPerSec:  40 << 20,  // 40 MB/s
		RowCPU:          50e-9,     // 50ns per row
		StageOverhead:   0.5,
		Scale:           1,
	}
}

// Model prices physical operators on a Cluster.
type Model struct {
	C Cluster
}

// NewModel returns a model over c, defaulting zero fields.
func NewModel(c Cluster) Model {
	d := DefaultCluster()
	if c.Machines <= 0 {
		c.Machines = d.Machines
	}
	if c.DiskBytesPerSec <= 0 {
		c.DiskBytesPerSec = d.DiskBytesPerSec
	}
	if c.NetBytesPerSec <= 0 {
		c.NetBytesPerSec = d.NetBytesPerSec
	}
	if c.RowCPU <= 0 {
		c.RowCPU = d.RowCPU
	}
	if c.StageOverhead <= 0 {
		c.StageOverhead = d.StageOverhead
	}
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	return Model{C: c}
}

// Parallelism returns the effective number of machines over which data
// with the given delivered partitioning spreads. Hash partitioning is
// capped by the distinct-value count of the partition columns; serial
// data lives on one machine; random and broadcast data use the whole
// cluster.
func (m Model) Parallelism(p props.Partitioning, rel stats.Relation) float64 {
	n := float64(m.C.Machines)
	switch p.Kind {
	case props.PartSerial:
		return 1
	case props.PartHash, props.PartRange:
		combos := 1.0
		for _, c := range p.Cols.Cols() {
			combos *= float64(rel.DistinctOf(c))
			if combos >= n {
				return n
			}
		}
		if combos < 1 {
			combos = 1
		}
		return math.Min(combos, n)
	default:
		return n
	}
}

// scanCost prices a sequential read or write of the relation spread
// over par machines.
func (m Model) scanCost(rel stats.Relation, par float64) float64 {
	return float64(rel.Bytes()) / m.C.DiskBytesPerSec / par
}

// cpuCost prices per-row CPU work over par machines with a relative
// weight.
func (m Model) cpuCost(rows int64, par, weight float64) float64 {
	return float64(rows) * m.C.RowCPU * weight / par
}

// OpCost prices one physical operator. out is the operator's output
// relation; in are the children's output relations and inParts their
// delivered partitionings (used for parallelism). The result includes
// the per-stage scheduling overhead and the model scale.
func (m Model) OpCost(op relop.Operator, out stats.Relation, in []stats.Relation, inParts []props.Partitioning) float64 {
	base := m.rawOpCost(op, out, in, inParts)
	return (base + m.C.StageOverhead) * m.C.Scale
}

func (m Model) rawOpCost(op relop.Operator, out stats.Relation, in []stats.Relation, inParts []props.Partitioning) float64 {
	childPar := func(i int) float64 {
		if i < len(in) && i < len(inParts) {
			return m.Parallelism(inParts[i], in[i])
		}
		return float64(m.C.Machines)
	}
	switch o := op.(type) {
	case *relop.PhysExtract:
		// Parallel scan over the whole cluster plus per-row parse.
		par := float64(m.C.Machines)
		return m.scanCost(out, par) + m.cpuCost(out.Rows, par, 2)
	case *relop.PhysCacheScan:
		// Reading a cached artifact prices like one extra spool
		// consumer: a scan of the materialized partitions under their
		// recorded layout. No parse work — rows are already decoded.
		return m.scanCost(out, m.Parallelism(o.Part, out)) + m.cpuCost(out.Rows, m.Parallelism(o.Part, out), 0.2)
	case *relop.Repartition:
		return m.repartitionCost(in[0], inParts[0], o.To, !o.MergeOrder.Empty())
	case *relop.Sort:
		par := childPar(0)
		rowsPer := float64(in[0].Rows) / par
		if rowsPer < 2 {
			rowsPer = 2
		}
		return m.cpuCost(in[0].Rows, par, 1.5*math.Log2(rowsPer))
	case *relop.StreamAgg:
		return m.cpuCost(in[0].Rows, childPar(0), 1)
	case *relop.HashAgg:
		// Hash build + probe is pricier per row than streaming, and
		// the table build adds a per-group charge.
		par := childPar(0)
		return m.cpuCost(in[0].Rows, par, 2.5) + m.cpuCost(out.Rows, par, 1)
	case *relop.SortMergeJoin:
		par := math.Max(childPar(0), childPar(1))
		return m.cpuCost(in[0].Rows+in[1].Rows+out.Rows, par, 1)
	case *relop.HashJoin:
		par := math.Max(childPar(0), childPar(1))
		build, probe := in[0].Rows, in[1].Rows
		if build > probe {
			build, probe = probe, build
		}
		return m.cpuCost(build, par, 3) + m.cpuCost(probe+out.Rows, par, 1.2)
	case *relop.PhysSpool:
		// Materialize once to local disk; consumer reads are priced
		// by SpoolReadCost at plan-assembly time.
		par := childPar(0)
		return m.scanCost(in[0], par) + m.cpuCost(in[0].Rows, par, 0.5)
	case *relop.PhysOutput:
		par := childPar(0)
		return m.scanCost(in[0], par) + m.cpuCost(in[0].Rows, par, 0.5)
	case *relop.PhysFilter:
		return m.cpuCost(in[0].Rows, childPar(0), 1)
	case *relop.PhysProject:
		return m.cpuCost(in[0].Rows, childPar(0), 0.5)
	case *relop.PhysUnion:
		// Concatenation is free beyond touching the rows.
		var rows int64
		for _, r := range in {
			rows += r.Rows
		}
		return m.cpuCost(rows, float64(m.C.Machines), 0.1)
	case *relop.PhysSequence:
		return 0
	default:
		// Unknown physical operators price as plain per-row work so
		// the optimizer stays total.
		var rows int64
		for _, r := range in {
			rows += r.Rows
		}
		return m.cpuCost(rows, float64(m.C.Machines), 1)
	}
}

// repartitionCost prices an exchange of rel from partitioning `from`
// to `to`. Every byte crosses the network once, bounded by the slower
// of send and receive aggregate bandwidth; a sort-preserving merge
// receive adds per-row merge work.
func (m Model) repartitionCost(rel stats.Relation, from, to props.Partitioning, merge bool) float64 {
	bytes := float64(rel.Bytes())
	senders := m.Parallelism(from, rel)
	receivers := m.Parallelism(to, rel)
	if to.Kind == props.PartBroadcast {
		bytes *= float64(m.C.Machines)
		receivers = float64(m.C.Machines)
	}
	send := bytes / m.C.NetBytesPerSec / senders
	recv := bytes / m.C.NetBytesPerSec / receivers
	cost := math.Max(send, recv) + m.cpuCost(rel.Rows, senders, 0.5)
	if merge {
		ways := senders
		if ways < 2 {
			ways = 2
		}
		cost += m.cpuCost(rel.Rows, receivers, 0.5*math.Log2(ways))
	}
	return cost
}

// RepartitionCost exposes the bare exchange price for ranking shared
// groups by repartitioning savings (paper Sec. VIII-B): the cost of
// redistributing the group's output across the full cluster.
func (m Model) RepartitionCost(rel stats.Relation) float64 {
	from := props.RandomPartitioning()
	to := props.HashPartitioning(props.NewColSet("_"))
	return (m.repartitionCost(rel, from, to, false) + m.C.StageOverhead) * m.C.Scale
}

// SpoolReadCost prices one extra consumer reading a materialized spool
// of rel delivered with partitioning p.
func (m Model) SpoolReadCost(rel stats.Relation, p props.Partitioning) float64 {
	par := m.Parallelism(p, rel)
	return (m.scanCost(rel, par) + m.C.StageOverhead) * m.C.Scale
}
