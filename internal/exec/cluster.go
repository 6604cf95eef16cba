package exec

import (
	"fmt"
	"runtime"
	"sync"

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
	// budget ablations can isolate it.
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

	// oracle, when set, runs every row-producing operator in place of
	// the kernels. Only export_test.go sets it, to the row oracle
	// (rowops_test.go), so no production build can reach that path.
	oracle func(r *runner, n *plan.Node, ins []*pdata, sp obs.Span) (*pdata, error)

	mu      sync.Mutex
	metrics Metrics // guarded by mu; Run calls may be concurrent
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
// machine.
type pdata struct {
	schema relop.Schema
	parts  []*colData
	// broadcast marks replicated data: every partition holds a full
	// copy. Operators that merge partitions (Output, Repartition)
	// must read a single copy, and aggregations must never consume
	// it directly.
	broadcast bool
}

func newVData(schema relop.Schema, machines int) *pdata {
	return &pdata{schema: schema, parts: make([]*colData, machines)}
}

// partRows returns the visible row count of one partition.
func (p *pdata) partRows(m int) int64 {
	if c := p.parts[m]; c != nil {
		return int64(c.rows())
	}
	return 0
}

// rows returns the total row count.
func (p *pdata) rows() int64 {
	var n int64
	for m := range p.parts {
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
// index) into rows; broadcast data yields its single logical copy.
// This is the row/column boundary for Output and spool persistence.
func (p *pdata) gather() []relop.Row {
	if p.broadcast {
		return p.parts[0].materialize()
	}
	var out []relop.Row
	for _, c := range p.parts {
		if c != nil {
			out = append(out, c.materialize()...)
		}
	}
	return out
}

// keyOf renders the key columns of a row for validation maps.
func keyOf(r relop.Row, idx []int) string {
	s := ""
	for _, i := range idx {
		s += r[i].String() + "|"
	}
	return s
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
