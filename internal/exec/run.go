package exec

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relop"
)

// Run executes a physical plan on the cluster. Output operators write
// their results into the cluster's FileStore; the returned map also
// exposes them by path. A shared Spool (same memo group and
// optimization context) is materialized once and re-read by every
// consumer; any other node referenced several times re-executes per
// reference, exactly as the DAG-aware cost model assumes.
//
// Execution is parallel: partition tasks run across a bounded worker
// pool (Cluster.Workers wide), independent sequence branches execute
// concurrently, and shared spools are materialized single-flight —
// the first consumer to arrive executes the shared subtree while
// concurrent consumers block and then read. Results and metered
// totals are identical at every worker count, and concurrent Run
// calls on one Cluster are safe.
func (c *Cluster) Run(root *plan.Node) (map[string]*Table, error) {
	return c.RunContext(context.Background(), root)
}

// RunContext is Run with cancellation: when ctx is canceled the run
// stops scheduling work and returns the cancellation cause.
func (c *Cluster) RunContext(ctx context.Context, root *plan.Node) (map[string]*Table, error) {
	r, finish := c.newRunner(ctx)
	defer finish()
	if _, err := r.exec(root, r.span); err != nil {
		return nil, err
	}
	return r.outputs, nil
}

// runner is the per-Run execution state. One runner never outlives
// its Run call; the spool table and outputs are private to it, and
// all metered work is merged into the cluster exactly once when the
// run finishes.
type runner struct {
	c      *Cluster
	ctx    context.Context
	cancel context.CancelCauseFunc
	// slots hands out worker ids; its capacity bounds how many
	// partition tasks execute at once. shards[i] is worker i's private
	// metric shard, written without synchronization.
	slots  chan int
	shards []Metrics
	// tr records execution spans (nil = disabled); span is the
	// run-root span every top-level node and every single-flight spool
	// materialization parents to.
	tr   *obs.Tracer
	span obs.Span
	// budget is the per-machine scratch budget over which operators
	// spill (spill.go). runID names this run's spill namespace.
	budget int64
	runID  int64
	spillN int // guarded by mu; per-run spill namespace counter

	mu      sync.Mutex
	coord   Metrics                      // guarded by mu; operator-granular metering outside the pool
	spools  map[plan.SpoolID]*spoolEntry // guarded by mu
	outputs map[string]*Table            // guarded by mu
	// actuals, when non-nil, records per-node output rows and bytes
	// (EXPLAIN ANALYZE support).
	actuals map[*plan.Node]NodeActual // guarded by mu
}

// spoolEntry is the single-flight state of one shared spool: the
// first consumer to arrive materializes and closes done; concurrent
// consumers block on done and then read.
type spoolEntry struct {
	done chan struct{}
	p    *pdata
	err  error
}

func (c *Cluster) newRunner(ctx context.Context) (*runner, func()) {
	workers := c.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	ctx, cancel := context.WithCancelCause(ctx)
	r := &runner{
		c:       c,
		ctx:     ctx,
		cancel:  cancel,
		slots:   make(chan int, workers),
		shards:  make([]Metrics, workers),
		tr:      c.Trace,
		budget:  c.MemBudget,
		runID:   c.FS.nextRunSeq(),
		spools:  map[plan.SpoolID]*spoolEntry{},
		outputs: map[string]*Table{},
	}
	r.span = r.tr.Start(obs.Span{}, "exec", "run", "run")
	for i := 0; i < workers; i++ {
		r.slots <- i
	}
	finish := func() {
		cancel(nil)
		total := r.coord
		for i := range r.shards {
			total.add(r.shards[i])
		}
		c.addMetrics(total)
		total.Publish(c.Obs)
		r.span.Arg("rows_processed", total.RowsProcessed)
		r.span.End()
	}
	return r, finish
}

// meter records coordinator-side metered work (operator-granular
// metering that does not happen inside partition tasks).
func (r *runner) meter(f func(*Metrics)) {
	r.mu.Lock()
	f(&r.coord)
	r.mu.Unlock()
}

func (r *runner) recordActual(n *plan.Node, rows, bytes int64) {
	if r.actuals == nil {
		return
	}
	r.mu.Lock()
	r.actuals[n] = NodeActual{Rows: rows, Bytes: bytes}
	r.mu.Unlock()
}

// forEach runs fn(i, shard) for every i in [0, n) across the bounded
// worker pool; shard is the executing worker's private metric shard.
// When tracing, each task records a span named label under parent
// (identity "p<i>", so the tree is scheduling-independent). The first
// error cancels the whole run — tasks already running finish, queued
// ones are dropped — and is returned.
func (r *runner) forEach(parent obs.Span, label string, n int, fn func(i int, shard *Metrics) error) error {
	var wg sync.WaitGroup
launch:
	for i := 0; i < n; i++ {
		select {
		case <-r.ctx.Done():
			break launch
		case slot := <-r.slots:
			wg.Add(1)
			go func(i, slot int) {
				defer wg.Done()
				defer func() { r.slots <- slot }()
				var psp obs.Span
				if r.tr != nil {
					psp = r.tr.Start(parent, "exec", label, fmt.Sprintf("p%d", i))
				}
				err := fn(i, &r.shards[slot])
				psp.End()
				if err != nil {
					r.cancel(err)
				}
			}(i, slot)
		}
	}
	wg.Wait()
	return context.Cause(r.ctx)
}

// execAll executes the given nodes concurrently (on coordinator
// goroutines; row work stays bounded by the worker pool) and returns
// their results in order.
func (r *runner) execAll(nodes []*plan.Node, parent obs.Span) ([]*pdata, error) {
	out := make([]*pdata, len(nodes))
	if len(nodes) == 1 {
		p, err := r.exec(nodes[0], parent)
		if err != nil {
			return nil, err
		}
		out[0] = p
		return out, nil
	}
	var wg sync.WaitGroup
	for i, ch := range nodes {
		wg.Add(1)
		go func(i int, ch *plan.Node) {
			defer wg.Done()
			p, err := r.exec(ch, parent)
			if err != nil {
				r.cancel(err)
				return
			}
			out[i] = p
		}(i, ch)
	}
	wg.Wait()
	if err := context.Cause(r.ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// exec wraps execNode in a per-operator span: name is the operator
// kind, identity is the node's group and context (nodeID), and the
// output row count lands as an argument, as does an exchange's layout:
// its rows per destination machine. Children trace under this span, so
// the tree mirrors the plan DAG.
func (r *runner) exec(n *plan.Node, parent obs.Span) (*pdata, error) {
	if r.tr == nil {
		return r.execNode(n, parent)
	}
	sp := r.tr.Start(parent, "exec", n.Op.Kind().String(), nodeID(n))
	p, err := r.execNode(n, sp)
	if err == nil && p != nil {
		sp.Arg("rows", p.rows())
		if _, ok := n.Op.(*relop.Repartition); ok {
			for m := range p.parts {
				sp.Arg(fmt.Sprintf("part%d", m), p.partRows(m))
			}
		}
	}
	sp.End()
	return p, err
}

func (r *runner) execNode(n *plan.Node, sp obs.Span) (*pdata, error) {
	if err := context.Cause(r.ctx); err != nil {
		return nil, err
	}
	switch op := n.Op.(type) {
	case *relop.PhysSequence:
		if err := r.sequence(n, sp); err != nil {
			return nil, err
		}
		r.recordActual(n, 0, 0)
		return newVData(relop.Schema{}, r.c.Machines), nil
	case *relop.PhysSpool:
		return r.spool(n, sp)
	case *relop.PhysOutput:
		in, err := r.exec(n.Children[0], sp)
		if err != nil {
			return nil, err
		}
		t := &Table{Schema: in.schema, Rows: in.gather()}
		if !op.Order.Empty() {
			if err := checkSorted(t.Rows, t.Schema, op.Order); err != nil {
				return nil, fmt.Errorf("exec: output %q: %w", op.Path, err)
			}
		}
		r.meter(func(m *Metrics) { m.DiskBytesWritten += t.Bytes() })
		r.c.FS.Put(op.Path, t)
		r.mu.Lock()
		r.outputs[op.Path] = t
		r.mu.Unlock()
		r.recordActual(n, int64(len(t.Rows)), t.Bytes())
		return in, nil
	}
	// Row-producing operators: inputs execute concurrently.
	ins, err := r.execAll(n.Children, sp)
	if err != nil {
		return nil, err
	}
	var inRows int64
	for _, p := range ins {
		inRows += p.rows()
	}
	r.meter(func(m *Metrics) { m.RowsProcessed += inRows })
	out, err := r.apply(n, ins, sp)
	if err != nil {
		return nil, err
	}
	r.recordActual(n, out.rows(), out.logicalBytes())
	return out, nil
}

// sequence executes the statements of a script. Independent branches
// run concurrently; if any branch extracts a file another branch
// outputs, the whole sequence falls back to serial statement order.
func (r *runner) sequence(n *plan.Node, sp obs.Span) error {
	if sequenceHasFileDeps(n.Children) {
		for _, ch := range n.Children {
			if _, err := r.exec(ch, sp); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := r.execAll(n.Children, sp)
	return err
}

// sequenceHasFileDeps reports whether any subtree reads a file path
// some subtree writes, in which case statement order is load-bearing.
func sequenceHasFileDeps(children []*plan.Node) bool {
	extracts, outputs := map[string]bool{}, map[string]bool{}
	for _, ch := range children {
		ioPaths(ch, map[*plan.Node]bool{}, extracts, outputs)
	}
	for p := range extracts {
		if outputs[p] {
			return true
		}
	}
	return false
}

// ioPaths collects the extract and output paths of a subtree, walking
// shared (DAG) nodes once.
func ioPaths(n *plan.Node, seen map[*plan.Node]bool, extracts, outputs map[string]bool) {
	if seen[n] {
		return
	}
	seen[n] = true
	switch op := n.Op.(type) {
	case *relop.PhysExtract:
		extracts[op.Path] = true
	case *relop.PhysOutput:
		outputs[op.Path] = true
	}
	for _, ch := range n.Children {
		ioPaths(ch, seen, extracts, outputs)
	}
}

// spool materializes a shared subexpression single-flight: the first
// consumer to arrive executes the shared subtree, concurrent
// consumers block and then read — the runtime analogue of the plan-
// level one-Spool invariant (lint P1). Metering uses the spool's
// logical size, so a broadcast spool does not over-count its
// replicas against the cost model's accounting.
func (r *runner) spool(n *plan.Node, sp obs.Span) (*pdata, error) {
	key := n.SpoolID()
	r.mu.Lock()
	if e, ok := r.spools[key]; ok {
		r.mu.Unlock()
		select {
		case <-e.done:
		case <-r.ctx.Done():
			return nil, context.Cause(r.ctx)
		}
		if e.err != nil {
			return nil, e.err
		}
		r.meter(func(m *Metrics) {
			m.SpoolReads++
			m.DiskBytesRead += e.p.logicalBytes()
		})
		return e.p, nil
	}
	e := &spoolEntry{done: make(chan struct{})}
	r.spools[key] = e
	r.mu.Unlock()
	// Which consumer materializes is scheduling-dependent, so the
	// materialization (and the shared subtree under it) parents to the
	// run root rather than to this consumer's span: every consumer's
	// own Spool span then looks identical, and the tree stays
	// deterministic at any worker width.
	var msp obs.Span
	if r.tr != nil {
		msp = r.tr.Start(r.span, "exec", "spool-materialize", nodeID(n))
	}
	e.p, e.err = r.exec(n.Children[0], msp)
	if r.tr != nil {
		if e.err == nil {
			msp.Arg("bytes", e.p.logicalBytes())
		}
		msp.End()
	}
	close(e.done)
	if e.err != nil {
		return nil, e.err
	}
	r.recordActual(n, e.p.rows(), e.p.logicalBytes())
	r.meter(func(m *Metrics) {
		m.SpoolMaterializations++
		m.DiskBytesWritten += e.p.logicalBytes()
		m.SpoolReads++
		m.DiskBytesRead += e.p.logicalBytes()
	})
	if path, persist := r.c.PersistSpools[key]; persist && !e.p.broadcast {
		// Session-cache admission: the materialized spool content is
		// also persisted into the shared FileStore, metered as cache
		// bytes written (distinct from the plan's own disk traffic). The
		// artifact keeps the partitions the spool delivered, so a later
		// CacheScan attaches them (cacheArtifact) instead of re-deriving
		// the layout.
		counts := make([]int, len(e.p.parts))
		for m := range counts {
			counts[m] = int(e.p.partRows(m))
		}
		t := &Table{Schema: e.p.schema, Rows: e.p.gather(), PartRows: counts}
		r.c.FS.Put(path, t)
		r.meter(func(m *Metrics) { m.CacheBytesWritten += t.Bytes() })
	}
	return e.p, nil
}

// cacheArtifact loads a session-cached artifact for a CacheScan and
// returns it in the partitions its spool delivered: machine m's rows
// are partition m, in their materialized order. The layout was decided
// once, when the spool ran, and the cost model prices the hit as a
// plain read of it; nothing is re-hashed, re-ranged or re-sorted. A
// session fixes Machines and only its own runs read its artifacts, so
// a partition count that differs from the cluster's is an error. The
// load is metered as cache traffic, distinct from plan disk I/O.
func (r *runner) cacheArtifact(op *relop.PhysCacheScan, sp obs.Span) ([][]relop.Row, error) {
	t, ok := r.c.FS.Get(op.Path)
	if !ok {
		return nil, fmt.Errorf("exec: cached artifact %q not found", op.Path)
	}
	if len(t.Schema) != len(op.Columns) {
		return nil, fmt.Errorf("exec: cached artifact %q schema %v does not match %v",
			op.Path, t.Schema, op.Columns)
	}
	if len(t.PartRows) != r.c.Machines {
		return nil, fmt.Errorf("exec: cached artifact %q holds %d partitions, cluster has %d machines",
			op.Path, len(t.PartRows), r.c.Machines)
	}
	parts, ok := t.partitions()
	if !ok {
		return nil, fmt.Errorf("exec: cached artifact %q partition counts %v do not cover its %d rows",
			op.Path, t.PartRows, len(t.Rows))
	}
	r.meter(func(m *Metrics) {
		m.CacheReads++
		m.CacheBytesRead += t.Bytes()
	})
	if r.tr != nil {
		sp.Arg("cache_bytes", t.Bytes())
	}
	return parts, nil
}

// apply runs one row-producing operator on the columnar kernels
// (kernels.go), or on the oracle a test installed (Cluster.oracle).
func (r *runner) apply(n *plan.Node, ins []*pdata, sp obs.Span) (*pdata, error) {
	if r.c.oracle != nil {
		return r.c.oracle(r, n, ins, sp)
	}
	switch op := n.Op.(type) {
	case *relop.PhysExtract:
		return r.vextract(op, sp)
	case *relop.PhysCacheScan:
		return r.vcacheScan(op, sp)
	case *relop.PhysFilter:
		return r.vfilter(op, ins[0], sp)
	case *relop.PhysProject:
		return r.vproject(op, ins[0], n.Schema, sp)
	case *relop.Sort:
		return r.vsort(op.Order, ins[0], r.spillBase(n), sp)
	case *relop.Repartition:
		return r.vrepartition(op, ins[0], r.spillBase(n), sp)
	case *relop.StreamAgg:
		return r.vaggregate(op.Keys, op.Aggs, op.Phase, ins[0], n.Schema, true, "", sp)
	case *relop.HashAgg:
		return r.vaggregate(op.Keys, op.Aggs, op.Phase, ins[0], n.Schema, false, r.spillBase(n), sp)
	case *relop.SortMergeJoin:
		return r.vjoin(op.LeftKeys, op.RightKeys, ins[0], ins[1], n.Schema, r.spillBase(n), sp)
	case *relop.HashJoin:
		return r.vjoin(op.LeftKeys, op.RightKeys, ins[0], ins[1], n.Schema, r.spillBase(n), sp)
	case *relop.PhysUnion:
		return r.vunion(ins, n.Schema, sp)
	default:
		return nil, fmt.Errorf("exec: unsupported operator %T", n.Op)
	}
}

// RunAnalyzedContext executes the plan like RunContext while recording
// the actual output rows and bytes of every distinct plan node — the
// executable side of EXPLAIN ANALYZE. Spools record their materialized
// size once. Wrap the result in NewAnalysis for estimate-accuracy
// reporting.
func (c *Cluster) RunAnalyzedContext(ctx context.Context, root *plan.Node) (map[string]*Table, map[*plan.Node]NodeActual, error) {
	r, finish := c.newRunner(ctx)
	defer finish()
	r.actuals = map[*plan.Node]NodeActual{}
	if _, err := r.exec(root, r.span); err != nil {
		return nil, nil, err
	}
	return r.outputs, r.actuals, nil
}
