package exec

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
)

// This file is the row oracle: a row-at-a-time implementation of every
// physical operator, kept as the reference the differential matrix
// (TestDifferential) compares the columnar kernels against. It
// produces the same tables in the same order, the same shared meters
// and the same trace trees as the kernels, from code that shares none of
// their typed loops. It is test code: export_test.go's UseRowOracle
// installs applyRow as the cluster's oracle.
//
// The oracle ignores Cluster.MemBudget: it never spills, which is why
// comparisons go through the meters both engines share.

// rdata is a partitioned intermediate result in row form, the
// oracle's own representation of pdata.
type rdata struct {
	schema    relop.Schema
	parts     [][]relop.Row
	broadcast bool
}

func newRData(schema relop.Schema, machines int) *rdata {
	return &rdata{schema: schema, parts: make([][]relop.Row, machines)}
}

// applyRow is apply on the row operators. It converts at its boundary
// only: every input partition materializes to rows, and every output
// partition is rebuilt as a batch (a lossless round trip for the three
// value kinds), so the operators in between keep their own row logic,
// metering and spans.
func (r *runner) applyRow(n *plan.Node, ins []*pdata, sp obs.Span) (*pdata, error) {
	rins := make([]*rdata, len(ins))
	for i, in := range ins {
		rins[i] = &rdata{schema: in.schema, parts: make([][]relop.Row, len(in.parts)), broadcast: in.broadcast}
		for m, c := range in.parts {
			rins[i].parts[m] = c.materialize()
		}
	}
	out, err := r.rowOp(n, rins, sp)
	if err != nil {
		return nil, err
	}
	p := newVData(out.schema, len(out.parts))
	p.broadcast = out.broadcast
	for m, rows := range out.parts {
		p.parts[m] = colsFromRows(len(out.schema), rows)
	}
	return p, nil
}

// rowOp runs one row-producing operator on row-form inputs.
func (r *runner) rowOp(n *plan.Node, ins []*rdata, sp obs.Span) (*rdata, error) {
	switch op := n.Op.(type) {
	case *relop.PhysExtract:
		return r.extract(op, sp)
	case *relop.PhysCacheScan:
		return r.cacheScan(op, sp)
	case *relop.PhysFilter:
		return r.filter(op, ins[0], sp)
	case *relop.PhysProject:
		return r.project(op, ins[0], n.Schema, sp)
	case *relop.Sort:
		return r.sortOp(op, ins[0], sp)
	case *relop.Repartition:
		return r.repartition(op, ins[0], sp)
	case *relop.StreamAgg:
		return r.aggregate(op.Keys, op.Aggs, op.Phase, ins[0], n.Schema, true, sp)
	case *relop.HashAgg:
		return r.aggregate(op.Keys, op.Aggs, op.Phase, ins[0], n.Schema, false, sp)
	case *relop.SortMergeJoin:
		return r.join(op.LeftKeys, op.RightKeys, ins[0], ins[1], n.Schema, sp)
	case *relop.HashJoin:
		return r.join(op.LeftKeys, op.RightKeys, ins[0], ins[1], n.Schema, sp)
	case *relop.PhysUnion:
		return r.union(ins, n.Schema, sp)
	default:
		return nil, fmt.Errorf("exec: unsupported operator %T", n.Op)
	}
}

func (r *runner) extract(op *relop.PhysExtract, sp obs.Span) (*rdata, error) {
	t, ok := r.c.FS.Get(op.Path)
	if !ok {
		return nil, fmt.Errorf("exec: input file %q not found", op.Path)
	}
	// Project the stored table onto the extracted columns (the
	// extractor's declared schema must be a subset of the file's).
	idx, ok := t.Schema.Indexes(op.Columns.Names())
	if !ok {
		return nil, fmt.Errorf("exec: file %q schema %v missing extract columns %v",
			op.Path, t.Schema, op.Columns.Names())
	}
	out := newRData(op.Columns, r.c.Machines)
	width := int64(len(op.Columns)) * 8
	if err := r.forEach(sp, "part", r.c.Machines, func(m int, shard *Metrics) error {
		// Round-robin distribution: machine m owns rows m, m+M, ...
		for i := m; i < len(t.Rows); i += r.c.Machines {
			row := t.Rows[i]
			nr := make(relop.Row, len(idx))
			for j, k := range idx {
				nr[j] = row[k]
			}
			out.parts[m] = append(out.parts[m], nr)
		}
		shard.DiskBytesRead += int64(len(out.parts[m])) * width
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// cacheScan attaches a cached artifact in its recorded partitions
// (cacheArtifact), as rows.
func (r *runner) cacheScan(op *relop.PhysCacheScan, sp obs.Span) (*rdata, error) {
	parts, err := r.cacheArtifact(op, sp)
	if err != nil {
		return nil, err
	}
	return &rdata{schema: op.Columns, parts: parts}, nil
}

func (r *runner) filter(op *relop.PhysFilter, in *rdata, sp obs.Span) (*rdata, error) {
	out := newRData(in.schema, r.c.Machines)
	out.broadcast = in.broadcast
	if err := r.forEach(sp, "part", len(in.parts), func(m int, _ *Metrics) error {
		for _, row := range in.parts[m] {
			v, err := relop.EvalScalar(op.Pred, row, in.schema)
			if err != nil {
				return err
			}
			if v.Kind == relop.TInt && v.I != 0 {
				out.parts[m] = append(out.parts[m], row)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *runner) project(op *relop.PhysProject, in *rdata, schema relop.Schema, sp obs.Span) (*rdata, error) {
	out := newRData(schema, r.c.Machines)
	out.broadcast = in.broadcast
	if err := r.forEach(sp, "part", len(in.parts), func(m int, _ *Metrics) error {
		for _, row := range in.parts[m] {
			nr := make(relop.Row, len(op.Items))
			for j, it := range op.Items {
				v, err := relop.EvalScalar(it.Expr, row, in.schema)
				if err != nil {
					return err
				}
				nr[j] = v
			}
			out.parts[m] = append(out.parts[m], nr)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *runner) sortOp(op *relop.Sort, in *rdata, sp obs.Span) (*rdata, error) {
	out := newRData(in.schema, r.c.Machines)
	out.broadcast = in.broadcast
	if err := r.forEach(sp, "part", len(in.parts), func(m int, _ *Metrics) error {
		cp := make([]relop.Row, len(in.parts[m]))
		copy(cp, in.parts[m])
		if err := sortRows(cp, in.schema, op.Order); err != nil {
			return err
		}
		out.parts[m] = cp
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *runner) repartition(op *relop.Repartition, in *rdata, sp obs.Span) (*rdata, error) {
	r.meter(func(m *Metrics) { m.Exchanges++ })
	// Broadcast input: operate on its single logical copy.
	src := in.parts
	if in.broadcast {
		src = [][]relop.Row{in.parts[0]}
	}
	srcBytes := int64(0)
	for _, part := range src {
		srcBytes += int64(len(part)) * int64(len(in.schema)) * 8
	}
	out := newRData(in.schema, r.c.Machines)
	switch op.To.Kind {
	case props.PartSerial:
		var all []relop.Row
		for _, part := range src {
			all = append(all, part...)
		}
		out.parts[0] = all
		r.meter(func(m *Metrics) { m.NetBytes += srcBytes })
	case props.PartBroadcast:
		var all []relop.Row
		for _, part := range src {
			all = append(all, part...)
		}
		for m := range out.parts {
			out.parts[m] = all
		}
		out.broadcast = true
		r.meter(func(m *Metrics) { m.NetBytes += srcBytes * int64(r.c.Machines) })
	case props.PartHash:
		idx, ok := in.schema.Indexes(op.To.Cols.Cols())
		if !ok {
			return nil, fmt.Errorf("exec: repartition columns %v not in schema %v", op.To.Cols, in.schema)
		}
		if err := r.scatter(src, out, func(row relop.Row) int {
			return hashDest(row, idx, r.c.Machines)
		}, sp); err != nil {
			return nil, err
		}
	case props.PartRange:
		dest, err := rangeDest(op.To.SortCols, in.schema, src, r.c.Machines)
		if err != nil {
			return nil, err
		}
		if err := r.scatter(src, out, dest, sp); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("exec: cannot repartition to %v", op.To)
	}
	if !op.MergeOrder.Empty() {
		// Merge receive: each machine merges the sorted streams it
		// received; sorting achieves the same deterministic result.
		if err := r.forEach(sp, "merge", len(out.parts), func(m int, _ *Metrics) error {
			cp := make([]relop.Row, len(out.parts[m]))
			copy(cp, out.parts[m])
			if err := sortRows(cp, in.schema, op.MergeOrder); err != nil {
				return err
			}
			out.parts[m] = cp
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scatter routes every source row to dest(row), parallelizing over
// source partitions with per-source staging buckets and then
// concatenating per destination in source order, so the result is
// identical to a serial scatter. Each task meters the bytes its
// source partition sends across the network.
func (r *runner) scatter(src [][]relop.Row, out *rdata, dest func(relop.Row) int, sp obs.Span) error {
	machines := len(out.parts)
	width := int64(len(out.schema)) * 8
	stage := make([][][]relop.Row, len(src))
	if err := r.forEach(sp, "send", len(src), func(s int, shard *Metrics) error {
		buckets := make([][]relop.Row, machines)
		for _, row := range src[s] {
			d := dest(row)
			buckets[d] = append(buckets[d], row)
		}
		stage[s] = buckets
		shard.NetBytes += int64(len(src[s])) * width
		return nil
	}); err != nil {
		return err
	}
	return r.forEach(sp, "recv", machines, func(d int, _ *Metrics) error {
		for s := range stage {
			out.parts[d] = append(out.parts[d], stage[s][d]...)
		}
		return nil
	})
}

// aggregate implements stream and hash aggregation. Stream mode
// requires clustered input (validated); Global/Single phases require
// each key to be colocated on a single machine (validated). Partitions
// aggregate in parallel; the cross-partition colocation check runs
// over the collected per-partition key sets afterwards.
func (r *runner) aggregate(keys []string, aggs []relop.Aggregate, phase relop.AggPhase, in *rdata, schema relop.Schema, stream bool, sp obs.Span) (*rdata, error) {
	if in.broadcast {
		return nil, fmt.Errorf("exec: aggregation over broadcast input would multiply results")
	}
	keyIdx, ok := in.schema.Indexes(keys)
	if !ok {
		return nil, fmt.Errorf("exec: aggregation keys %v not in schema %v", keys, in.schema)
	}
	argIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Func == relop.AggCount && a.Arg == "" {
			argIdx[i] = -1
			continue
		}
		j := in.schema.Index(a.Arg)
		if j < 0 {
			return nil, fmt.Errorf("exec: aggregate argument %q not in schema %v", a.Arg, in.schema)
		}
		argIdx[i] = j
	}
	out := newRData(schema, r.c.Machines)
	partKeys := make([][]string, len(in.parts))
	if err := r.forEach(sp, "part", len(in.parts), func(m int, _ *Metrics) error {
		part := in.parts[m]
		groups := map[string][]*relop.AggState{}
		var order []string
		keyRows := map[string]relop.Row{}
		lastKey := ""
		closed := map[string]bool{}
		for _, row := range part {
			k := keyOf(row, keyIdx)
			if stream {
				// Clustering check: once a run for a key ends, the
				// key must not reappear in this partition.
				if k != lastKey {
					if closed[k] {
						return fmt.Errorf("exec: stream aggregation input not clustered on %v (key %s reappeared)", keys, k)
					}
					if lastKey != "" {
						closed[lastKey] = true
					}
					lastKey = k
				}
			}
			st, okG := groups[k]
			if !okG {
				st = make([]*relop.AggState, len(aggs))
				for i, a := range aggs {
					st[i] = relop.NewAggState(a.Func)
				}
				groups[k] = st
				order = append(order, k)
				keyRows[k] = row
			}
			for i := range aggs {
				if argIdx[i] < 0 {
					st[i].Add(relop.IntVal(1))
				} else {
					st[i].Add(row[argIdx[i]])
				}
			}
		}
		for _, k := range order {
			row := keyRows[k]
			nr := make(relop.Row, 0, len(keys)+len(aggs))
			for _, ki := range keyIdx {
				nr = append(nr, row[ki])
			}
			for i := range aggs {
				nr = append(nr, groups[k][i].Result())
			}
			out.parts[m] = append(out.parts[m], nr)
		}
		partKeys[m] = order
		return nil
	}); err != nil {
		return nil, err
	}
	if phase != relop.AggLocal {
		globalSeen := map[string]int{}
		for m, order := range partKeys {
			for _, k := range order {
				if prev, dup := globalSeen[k]; dup && prev != m {
					return nil, fmt.Errorf("exec: %v aggregation on %v saw key %s on machines %d and %d (input not colocated)",
						phase, keys, k, prev, m)
				}
				globalSeen[k] = m
			}
		}
	}
	return out, nil
}

// join performs a per-machine hash join of co-located partitions; the
// plan's exchange operators are responsible for colocation (a
// broadcast inner is colocated with everything).
func (r *runner) join(lKeys, rKeys []string, l, rIn *rdata, schema relop.Schema, sp obs.Span) (*rdata, error) {
	lIdx, ok := l.schema.Indexes(lKeys)
	if !ok {
		return nil, fmt.Errorf("exec: left join keys %v not in %v", lKeys, l.schema)
	}
	rIdx, ok := rIn.schema.Indexes(rKeys)
	if !ok {
		return nil, fmt.Errorf("exec: right join keys %v not in %v", rKeys, rIn.schema)
	}
	out := newRData(schema, r.c.Machines)
	if err := r.forEach(sp, "part", r.c.Machines, func(m int, _ *Metrics) error {
		build := map[string][]relop.Row{}
		for _, row := range rIn.parts[m] {
			k := keyOf(row, rIdx)
			build[k] = append(build[k], row)
		}
		for _, lr := range l.parts[m] {
			k := keyOf(lr, lIdx)
			for _, rr := range build[k] {
				nr := make(relop.Row, 0, len(lr)+len(rr))
				nr = append(nr, lr...)
				nr = append(nr, rr...)
				out.parts[m] = append(out.parts[m], nr)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// union concatenates inputs partition-wise (UNION ALL).
func (r *runner) union(ins []*rdata, schema relop.Schema, sp obs.Span) (*rdata, error) {
	for _, in := range ins {
		if in.broadcast {
			return nil, fmt.Errorf("exec: union over broadcast input would multiply rows")
		}
	}
	out := newRData(schema, r.c.Machines)
	if err := r.forEach(sp, "part", r.c.Machines, func(m int, _ *Metrics) error {
		for _, in := range ins {
			out.parts[m] = append(out.parts[m], in.parts[m]...)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// hashDest computes the destination machine of a row under hash
// partitioning on the given column indexes.
func hashDest(r relop.Row, idx []int, machines int) int {
	return int(r.HashCols(idx) % uint64(machines))
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

// rangeDest computes the destination function of a range exchange
// over the given key order: boundaries are the quantiles of the
// distinct key tuples present in the data, so rows equal on the keys
// always share a partition and partition i's keys sort entirely
// before partition i+1's — the parallel path to globally sorted
// output.
func rangeDest(order props.Ordering, schema relop.Schema, src [][]relop.Row, machines int) (func(relop.Row) int, error) {
	idx := make([]int, len(order))
	for i, sc := range order {
		j := schema.Index(sc.Col)
		if j < 0 {
			return nil, fmt.Errorf("exec: range key %q not in schema %v", sc.Col, schema)
		}
		idx[i] = j
	}
	cmpKeys := func(a, b relop.Row) int {
		for k, sc := range order {
			c := a[idx[k]].Compare(b[idx[k]])
			if sc.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	// Distinct key representatives, sorted.
	var keys []relop.Row
	seen := map[string]bool{}
	for _, part := range src {
		for _, row := range part {
			k := keyOf(row, idx)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, row)
			}
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return cmpKeys(keys[i], keys[j]) < 0 })
	// Boundary b[i] is the first key of partition i+1.
	var bounds []relop.Row
	for i := 1; i < machines; i++ {
		pos := i * len(keys) / machines
		if pos > 0 && pos < len(keys) {
			bounds = append(bounds, keys[pos])
		}
	}
	return func(row relop.Row) int {
		// First boundary strictly greater than the row's key.
		lo, hi := 0, len(bounds)
		for lo < hi {
			mid := (lo + hi) / 2
			if cmpKeys(row, bounds[mid]) < 0 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}, nil
}
