package exec

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
)

// Metrics meters the simulated work of one plan execution.
type Metrics struct {
	// DiskBytesRead / DiskBytesWritten count file and spool I/O.
	DiskBytesRead    int64
	DiskBytesWritten int64
	// NetBytes counts bytes moved by exchanges.
	NetBytes int64
	// RowsProcessed counts operator input rows across all operators.
	RowsProcessed int64
	// SpoolMaterializations counts distinct spools executed;
	// SpoolReads counts consumer reads of materialized spools.
	SpoolMaterializations int
	SpoolReads            int
	// Exchanges counts repartition operations executed.
	Exchanges int
	// CacheReads counts CacheScan operators executed; CacheBytesRead
	// is the artifact bytes they loaded. Cache traffic is metered
	// separately from DiskBytesRead so cold-vs-warm comparisons can
	// isolate what the session cache saved.
	CacheReads     int
	CacheBytesRead int64
	// CacheBytesWritten counts spool bytes persisted into the session
	// cache (admission writes piggybacked on spool materialization).
	CacheBytesWritten int64
	// BatchesProcessed counts columnar batches processed by the
	// kernels.
	BatchesProcessed int64
	// ScalarCSEHits counts per-row evaluations served from the batch
	// expression memo instead of recomputed: each hit is one shared
	// subexpression reference over one row.
	ScalarCSEHits int64
	// Spills counts operator working sets that exceeded the memory
	// budget and went through the spill protocol; SpillBytesWritten /
	// SpillBytesRead meter the scratch traffic through the FileStore.
	// Spill traffic is metered apart from DiskBytesRead/Written so
	// budget ablations can isolate it, but SimulatedSeconds charges
	// it at disk bandwidth like any other file I/O.
	Spills            int
	SpillBytesWritten int64
	SpillBytesRead    int64
	// PeakResidentBytes is the largest per-operator working set any
	// single partition task held in memory (hash tables, sort
	// buffers, join builds). Shards merge it by maximum, so it is a
	// high-water mark, not a sum, and stays identical at any worker
	// width. The spill tests assert it never exceeds the budget.
	PeakResidentBytes int64
}

// Core returns the view of the metrics the row oracle shares with the
// kernels: the kernel-only counters (batches, scalar-CSE hits, spill
// traffic, resident peak) zeroed out. The oracle-diff tests compare
// Core views, since the row oracle can never spill or batch while
// everything the cost model prices must still match exactly.
func (m Metrics) Core() Metrics {
	m.BatchesProcessed = 0
	m.ScalarCSEHits = 0
	m.Spills = 0
	m.SpillBytesWritten = 0
	m.SpillBytesRead = 0
	m.PeakResidentBytes = 0
	return m
}

// SimulatedSeconds converts the metered work into wall-clock seconds
// on the given cluster, using the same bandwidth parameters as the
// cost model. It is a coarse lower bound (perfect overlap across
// stages) used to check that the estimator ranks plans like the
// metered execution does. Cache traffic is charged at disk bandwidth:
// the session cache's artifacts live in the same store as every other
// file, and the cost model prices their reads via SpoolReadCost, so a
// warm cache-served run must not simulate as free I/O.
func (m Metrics) SimulatedSeconds(c cost.Cluster) float64 {
	c = cost.NewModel(c).C
	machines := float64(c.Machines)
	diskBytes := m.DiskBytesRead + m.DiskBytesWritten + m.CacheBytesRead + m.CacheBytesWritten +
		m.SpillBytesRead + m.SpillBytesWritten
	disk := float64(diskBytes) / c.DiskBytesPerSec / machines
	net := float64(m.NetBytes) / c.NetBytesPerSec / machines
	cpu := float64(m.RowsProcessed) * c.RowCPU / machines
	return disk + net + cpu
}

// add accumulates o into m; Run uses it to merge per-worker metric
// shards into the cluster meter.
func (m *Metrics) add(o Metrics) {
	m.DiskBytesRead += o.DiskBytesRead
	m.DiskBytesWritten += o.DiskBytesWritten
	m.NetBytes += o.NetBytes
	m.RowsProcessed += o.RowsProcessed
	m.SpoolMaterializations += o.SpoolMaterializations
	m.SpoolReads += o.SpoolReads
	m.Exchanges += o.Exchanges
	m.CacheReads += o.CacheReads
	m.CacheBytesRead += o.CacheBytesRead
	m.CacheBytesWritten += o.CacheBytesWritten
	m.BatchesProcessed += o.BatchesProcessed
	m.ScalarCSEHits += o.ScalarCSEHits
	m.Spills += o.Spills
	m.SpillBytesWritten += o.SpillBytesWritten
	m.SpillBytesRead += o.SpillBytesRead
	// High-water mark, not a flow: merging shards takes the maximum
	// so the value is the largest single working set anywhere.
	if o.PeakResidentBytes > m.PeakResidentBytes {
		m.PeakResidentBytes = o.PeakResidentBytes
	}
}

// Cluster is the simulated shared-nothing cluster.
type Cluster struct {
	// Machines is the number of simulated machines (partitions).
	Machines int
	// MemBudget bounds, in bytes, the working set one partition task
	// may hold in memory (hash-aggregation tables, join builds, sort
	// buffers). 0 means unlimited. An operator that would exceed the
	// budget spills scratch runs through the metered FileStore and
	// completes.
	MemBudget int64
	// Workers bounds how many partition tasks execute concurrently
	// during a Run; <= 0 means runtime.GOMAXPROCS(0). One worker
	// reproduces fully serial execution. Every worker meters into its
	// own shard, merged into the cluster meter when the run finishes,
	// so metered totals are identical at any worker count.
	Workers int
	// FS is the simulated distributed file system.
	FS *FileStore
	// Validate enables runtime verification of the physical
	// properties plans rely on (colocation and clustering checks).
	Validate bool
	// PersistSpools maps spool identities to FileStore paths: when a
	// listed spool materializes, its logical content is also written
	// to the given path. Sessions use this to persist admitted shared
	// subexpressions into the cross-query cache. Set it before Run;
	// it is read concurrently during execution.
	PersistSpools map[plan.SpoolID]string
	// Trace, when non-nil, records execution spans: one per run, per
	// operator, per partition task, plus single-flight spool
	// materializations. Span identities derive from plan node ids, so
	// the span tree is deterministic at any Workers width. Nil
	// disables tracing at zero cost.
	Trace *obs.Tracer
	// Obs, when non-nil, receives every finished run's metered totals
	// (Metrics.Publish); safe with concurrent Run calls.
	Obs *obs.Registry

	// rowOracle runs plans on the row operators (rowops.go) instead of
	// the columnar kernels. Only export_test.go sets it.
	rowOracle bool

	mu      sync.Mutex
	metrics Metrics // guarded by mu; Run calls may be concurrent
	runSeq  int64   // guarded by mu; distinguishes spill scratch paths across runs
}

// nextRunSeq hands out the per-cluster run sequence number used to
// keep concurrent runs' spill scratch paths disjoint. Deterministic:
// it only varies with run admission order, and spill paths never
// outlive their operator.
func (c *Cluster) nextRunSeq() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runSeq++
	return c.runSeq
}

// NewCluster returns a cluster with the given machine count over fs.
// The machine count is part of the experiment being run, so an
// unusable value is an error rather than a silently substituted
// default.
func NewCluster(machines int, fs *FileStore) (*Cluster, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("exec: cluster needs at least 1 machine, got %d", machines)
	}
	if fs == nil {
		fs = NewFileStore()
	}
	return &Cluster{
		Machines: machines,
		Workers:  defaultWorkers(),
		FS:       fs,
		Validate: true,
	}, nil
}

// defaultWorkers is the worker-pool width used when Cluster.Workers
// is unset: one partition task in flight per available CPU.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Metrics returns the work metered since the last Reset.
func (c *Cluster) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// Reset clears the meter.
func (c *Cluster) Reset() {
	c.mu.Lock()
	c.metrics = Metrics{}
	c.mu.Unlock()
}

// addMetrics merges one run's metered work into the cluster meter.
func (c *Cluster) addMetrics(m Metrics) {
	c.mu.Lock()
	c.metrics.add(m)
	c.mu.Unlock()
}

// pdata is a partitioned intermediate result: one columnar batch per
// machine (vparts non-nil, parts nil), or one row slice per machine
// for the row oracle (newPData, rowops.go). The accounting views below
// are representation-independent, so metering is identical on both.
type pdata struct {
	schema relop.Schema
	parts  [][]relop.Row
	vparts []*colData
	// broadcast marks replicated data: every partition holds a full
	// copy. Operators that merge partitions (Output, Repartition)
	// must read a single copy, and aggregations must never consume
	// it directly.
	broadcast bool
}

func newVData(schema relop.Schema, machines int) *pdata {
	return &pdata{schema: schema, vparts: make([]*colData, machines)}
}

// partRows returns the visible row count of one partition.
func (p *pdata) partRows(m int) int64 {
	if p.vparts != nil {
		if c := p.vparts[m]; c != nil {
			return int64(c.rows())
		}
		return 0
	}
	return int64(len(p.parts[m]))
}

// nparts returns the partition count.
func (p *pdata) nparts() int {
	if p.vparts != nil {
		return len(p.vparts)
	}
	return len(p.parts)
}

// rows returns the total row count.
func (p *pdata) rows() int64 {
	var n int64
	for m := 0; m < p.nparts(); m++ {
		n += p.partRows(m)
	}
	return n
}

// bytes returns the accounted size across all partitions; broadcast
// data counts every replica.
func (p *pdata) bytes() int64 {
	return p.rows() * int64(len(p.schema)) * 8
}

// logicalBytes returns the size of one logical copy of the data.
// Broadcast pdata replicates the same rows on every machine, and
// storage metering (spool writes and reads, exchange sources) must
// not multiply by the copy count — the cost model prices those
// against the relation's logical size.
func (p *pdata) logicalBytes() int64 {
	if p.broadcast {
		return p.partRows(0) * int64(len(p.schema)) * 8
	}
	return p.bytes()
}

// gather concatenates all partitions (deterministically, by machine
// index); broadcast data yields its single logical copy. Columnar
// partitions materialize to rows here — the row/column boundary for
// Output and spool persistence.
func (p *pdata) gather() []relop.Row {
	if p.vparts != nil {
		if p.broadcast {
			return p.vparts[0].materialize()
		}
		var out []relop.Row
		for _, c := range p.vparts {
			if c != nil {
				out = append(out, c.materialize()...)
			}
		}
		return out
	}
	if p.broadcast {
		return p.parts[0]
	}
	var out []relop.Row
	for _, part := range p.parts {
		out = append(out, part...)
	}
	return out
}

// hashDest computes the destination machine of a row under hash
// partitioning on the given column indexes.
func hashDest(r relop.Row, idx []int, machines int) int {
	return int(r.HashCols(idx) % uint64(machines))
}

// keyOf renders the key columns of a row for validation maps.
func keyOf(r relop.Row, idx []int) string {
	s := ""
	for _, i := range idx {
		s += r[i].String() + "|"
	}
	return s
}

// sortRows sorts rows by the ordering in place. The sort is stable so
// executions are fully deterministic.
func sortRows(rows []relop.Row, schema relop.Schema, order props.Ordering) error {
	idx := make([]int, len(order))
	for i, sc := range order {
		j := schema.Index(sc.Col)
		if j < 0 {
			return fmt.Errorf("exec: sort column %q not in schema %v", sc.Col, schema)
		}
		idx[i] = j
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, sc := range order {
			c := rows[a][idx[i]].Compare(rows[b][idx[i]])
			if sc.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}

// checkSorted verifies rows are ordered by the given ordering; the
// executor uses it to validate ORDER BY outputs.
func checkSorted(rows []relop.Row, schema relop.Schema, order props.Ordering) error {
	idx := make([]int, len(order))
	for i, sc := range order {
		j := schema.Index(sc.Col)
		if j < 0 {
			return fmt.Errorf("sort column %q not in schema %v", sc.Col, schema)
		}
		idx[i] = j
	}
	for i := 1; i < len(rows); i++ {
		for k, sc := range order {
			c := rows[i-1][idx[k]].Compare(rows[i][idx[k]])
			if sc.Desc {
				c = -c
			}
			if c < 0 {
				break
			}
			if c > 0 {
				return fmt.Errorf("rows %d and %d violate order %v", i-1, i, order)
			}
		}
	}
	return nil
}
