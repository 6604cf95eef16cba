package exec

import (
	"fmt"
	"sort"

	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
)

// Spill-to-disk: when a Cluster has a per-machine MemBudget, the
// kernels bound each memory-hungry operator's scratch space —
// the sort buffer, the aggregation group table, the join build table
// — by spilling through the metered FileStore (external merge sort
// for Sort, grace hash partitioning for HashAgg and joins). Spill
// traffic is metered separately from plan and cache I/O
// (SpillBytesRead/Written), and the scratch high-water mark lands in
// PeakResidentBytes. Spilled execution stays bit-identical to
// in-memory execution: spilled runs and buckets are reassembled in
// the exact in-memory output order, which the oracle-diff tests check
// against the row oracle (which ignores the budget).
//
// Scratch accounting covers operator-private state only; operator
// input and output batches are pipeline-owned and not charged
// against the budget (the simulator necessarily holds them, a real
// engine streams them).

// recordPeak raises the shard's resident-scratch high-water mark.
func recordPeak(shard *Metrics, bytes int64) {
	if shard == nil {
		return
	}
	if bytes > shard.PeakResidentBytes {
		shard.PeakResidentBytes = bytes
	}
}

// spillBase names a scratch namespace in the FileStore for one
// spilling operator execution, unique within the run. Returns "" when
// spilling is disabled (no budget). Paths are transient: every spill
// file is removed before the operator returns.
func (r *runner) spillBase(n *plan.Node) string {
	if r.budget <= 0 {
		return ""
	}
	r.mu.Lock()
	r.spillN++
	k := r.spillN
	r.mu.Unlock()
	return fmt.Sprintf("tmp/spill/run%d/%s.%d", r.runID, nodeID(n), k)
}

func (r *runner) spillWrite(shard *Metrics, path string, t *Table) {
	r.c.FS.Put(path, t)
	shard.SpillBytesWritten += t.Bytes()
}

func (r *runner) spillRead(shard *Metrics, path string) (*Table, error) {
	t, ok := r.c.FS.Get(path)
	if !ok {
		return nil, fmt.Errorf("exec: spill file %q lost", path)
	}
	shard.SpillBytesRead += t.Bytes()
	return t, nil
}

func (r *runner) spillRemove(path string) { r.c.FS.Remove(path) }

// spillFanout picks the grace partitioning fan-out so each bucket's
// expected working set is about half the budget.
func spillFanout(workBytes, budget int64) int {
	f := 2 * ((workBytes + budget - 1) / budget)
	if f < 2 {
		f = 2
	}
	if f > 256 {
		f = 256
	}
	return int(f)
}

// externalSort sorts one dense partition whose buffer exceeds the
// budget: stable-sort budget-sized contiguous chunks, spill each as a
// run, then k-way merge with ties broken by run index. Contiguous
// chunks + stable chunk sort + lowest-run tie-break reproduce the
// in-memory stable sort exactly.
func (r *runner) externalSort(c *colData, schema relop.Schema, order props.Ordering, idx []int, base string, m int, shard *Metrics) (*colData, error) {
	rowBytes := int64(len(c.cols)) * 8
	if rowBytes == 0 {
		rowBytes = 8
	}
	runRows := int(r.budget / rowBytes)
	if runRows < 1 {
		runRows = 1
	}
	if runRows > c.n {
		runRows = c.n
	}
	shard.Spills++
	recordPeak(shard, int64(runRows)*rowBytes)
	var paths []string
	for lo := 0; lo < c.n; lo += runRows {
		hi := lo + runRows
		if hi > c.n {
			hi = c.n
		}
		sel := make([]int32, hi-lo)
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		dense := (&colData{cols: c.cols, n: c.n, sel: sel}).compact()
		perm := sortedPerm(dense, order, idx)
		rows := make([]relop.Row, len(perm))
		for k, p := range perm {
			rows[k] = dense.rowAt(p)
		}
		path := fmt.Sprintf("%s/m%d.run%d", base, m, len(paths))
		r.spillWrite(shard, path, &Table{Schema: schema, Rows: rows})
		paths = append(paths, path)
	}
	runs := make([][]relop.Row, len(paths))
	for i, path := range paths {
		t, err := r.spillRead(shard, path)
		if err != nil {
			return nil, err
		}
		runs[i] = t.Rows
	}
	cmp := func(a, b relop.Row) int {
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
	bs := make([]vecBuilder, len(c.cols))
	heads := make([]int, len(runs))
	for {
		best := -1
		for i := range runs {
			if heads[i] >= len(runs[i]) {
				continue
			}
			if best < 0 || cmp(runs[i][heads[i]], runs[best][heads[best]]) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		row := runs[best][heads[best]]
		heads[best]++
		for j := range bs {
			bs[j].add(row[j])
		}
	}
	for _, path := range paths {
		r.spillRemove(path)
	}
	cols := make([]*Vector, len(bs))
	for j := range cols {
		cols[j] = bs[j].vec()
	}
	return &colData{cols: cols, n: c.n}, nil
}

// saltHash maps an encoded key to a grace bucket. Salting gives each
// recursion level an independent partitioning, so a bucket that stays
// over budget from hash imbalance re-splits instead of looping: the
// salt is mixed in before MurmurHash3's finalizer, since keys that
// shared a bucket share the low bits a plain xor-multiply would keep.
func saltHash(buf []byte, salt int) uint64 {
	h := fnv64aBytes(buf) ^ uint64(salt)*0x9e3779b97f4a7c15
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// graceBuckets partitions the given positions of c by salted key hash.
func graceBuckets(c *colData, keyIdx []int, intKeys bool, pos []int32, fanout, salt int) [][]int32 {
	enc := keyEncoder(c, keyIdx, intKeys)
	sels := make([][]int32, fanout)
	var buf []byte
	for _, i := range pos {
		buf = enc(i, buf[:0])
		b := int(saltHash(buf, salt) % uint64(fanout))
		sels[b] = append(sels[b], i)
	}
	return sels
}

// identity returns [0, n) as positions.
func identity(n int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(i)
	}
	return pos
}

// graceSpillDepth bounds grace recursion; past it, a bucket
// aggregates (or builds) in memory even over budget — only reachable
// under extreme key skew, and the peak is still recorded honestly.
const graceSpillDepth = 6

// graceAgg hash-aggregates a partition whose group table could exceed
// the budget: rows grace-partition by key hash into fan-out buckets
// spilled through the FileStore, each bucket aggregates in memory
// (same key, same bucket — so buckets hold disjoint group sets), and
// a bucket that still looks over budget re-partitions recursively
// under a new hash salt. The groups reassemble in first-appearance
// order, which restores the in-memory output exactly.
func (r *runner) graceAgg(c *colData, schema relop.Schema, keyIdx, argIdx []int, aggs []relop.Aggregate, intKeys bool, base string, m int, shard *Metrics) (*aggGroups, error) {
	shard.Spills++
	g, err := r.graceAggRec(c, schema, keyIdx, argIdx, aggs, intKeys, base, m, identity(c.n), 0, 0, shard)
	if err != nil {
		return nil, err
	}
	// Restore first-appearance order across buckets. First positions
	// are distinct, so the order is total.
	perm := make([]int, len(g.firsts))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return g.firsts[perm[a]] < g.firsts[perm[b]] })
	out := &aggGroups{
		firsts: make([]int32, len(perm)),
		keys:   make([]string, len(perm)),
		states: make([][]relop.AggState, len(perm)),
	}
	for i, p := range perm {
		out.firsts[i] = g.firsts[p]
		out.keys[i] = g.keys[p]
		out.states[i] = g.states[p]
	}
	return out, nil
}

func (r *runner) graceAggRec(c *colData, schema relop.Schema, keyIdx, argIdx []int, aggs []relop.Aggregate, intKeys bool, base string, m int, pos []int32, salt, depth int, shard *Metrics) (*aggGroups, error) {
	outWidth := int64(len(keyIdx)+len(aggs)) * 8
	bound := int64(len(pos)) * outWidth
	fanout := spillFanout(bound, r.budget)
	sels := graceBuckets(c, keyIdx, intKeys, pos, fanout, salt)
	g := &aggGroups{}
	for b, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		var gb *aggGroups
		var err error
		if depth+1 < graceSpillDepth && int64(len(sel))*outWidth > r.budget {
			// Bucket still over budget (imbalance or a huge input):
			// re-split under a fresh salt before touching disk.
			gb, err = r.graceAggRec(c, schema, keyIdx, argIdx, aggs, intKeys, base, m, sel, salt+1, depth+1, shard)
			if err != nil {
				return nil, err
			}
		} else {
			rows := (&colData{cols: c.cols, n: c.n, sel: sel}).materialize()
			path := fmt.Sprintf("%s/m%d.d%d.s%d.b%d", base, m, depth, salt, b)
			r.spillWrite(shard, path, &Table{Schema: schema, Rows: rows})
			t, rerr := r.spillRead(shard, path)
			if rerr != nil {
				return nil, rerr
			}
			sub := colsFromRows(len(c.cols), t.Rows)
			gb, err = aggPart(sub, keyIdx, argIdx, aggs, intKeys, false, nil, shard)
			if err != nil {
				return nil, err
			}
			for gi := range gb.firsts {
				// Translate bucket-local first positions back to the
				// original batch.
				gb.firsts[gi] = sel[gb.firsts[gi]]
			}
			r.spillRemove(path)
		}
		g.firsts = append(g.firsts, gb.firsts...)
		g.keys = append(g.keys, gb.keys...)
		g.states = append(g.states, gb.states...)
	}
	return g, nil
}

// graceJoin joins a partition whose build side exceeds the budget:
// both sides grace-partition by key hash with one shared fan-out
// (matching keys land in matching buckets), buckets spill through the
// FileStore and join independently, and the matched position pairs
// re-sort to probe order — the row oracle's exact output order.
func (r *runner) graceJoin(lc, rc *colData, lSchema, rSchema relop.Schema, lIdx, rIdx []int, intKeys bool, base string, m int, shard *Metrics) ([]int32, []int32, error) {
	shard.Spills++
	lpos, rpos, err := r.graceJoinRec(lc, rc, lSchema, rSchema, lIdx, rIdx, intKeys, base, m,
		identity(lc.n), identity(rc.n), 0, 0, shard)
	if err != nil {
		return nil, nil, err
	}
	// Restore probe order: pairs sort by (probe position, build
	// position); within one probe row, build positions ascend in
	// build-insertion order already, so this is the row oracle's
	// output order.
	perm := make([]int, len(lpos))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		pa, pb := perm[a], perm[b]
		if lpos[pa] != lpos[pb] {
			return lpos[pa] < lpos[pb]
		}
		return rpos[pa] < rpos[pb]
	})
	ol := make([]int32, len(perm))
	or := make([]int32, len(perm))
	for i, p := range perm {
		ol[i] = lpos[p]
		or[i] = rpos[p]
	}
	return ol, or, nil
}

// graceJoinRec joins the given probe/build position subsets:
// partition both sides with one shared salted hash (matching keys
// land in matching buckets), spill each bucket pair through the
// FileStore, and hash-join pairs whose build side fits; a build
// bucket still over budget re-splits under a fresh salt.
func (r *runner) graceJoinRec(lc, rc *colData, lSchema, rSchema relop.Schema, lIdx, rIdx []int, intKeys bool, base string, m int, lposIn, rposIn []int32, salt, depth int, shard *Metrics) ([]int32, []int32, error) {
	buildWidth := int64(len(rc.cols)) * 8
	fanout := spillFanout(int64(len(rposIn))*buildWidth, r.budget)
	lsels := graceBuckets(lc, lIdx, intKeys, lposIn, fanout, salt)
	rsels := graceBuckets(rc, rIdx, intKeys, rposIn, fanout, salt)
	var lpos, rpos []int32
	for b := 0; b < fanout; b++ {
		if len(lsels[b]) == 0 || len(rsels[b]) == 0 {
			continue
		}
		if depth+1 < graceSpillDepth && int64(len(rsels[b]))*buildWidth > r.budget {
			lp, rp, err := r.graceJoinRec(lc, rc, lSchema, rSchema, lIdx, rIdx, intKeys, base, m,
				lsels[b], rsels[b], salt+1, depth+1, shard)
			if err != nil {
				return nil, nil, err
			}
			lpos = append(lpos, lp...)
			rpos = append(rpos, rp...)
			continue
		}
		lpath := fmt.Sprintf("%s/m%d.d%d.s%d.l%d", base, m, depth, salt, b)
		rpath := fmt.Sprintf("%s/m%d.d%d.s%d.r%d", base, m, depth, salt, b)
		r.spillWrite(shard, lpath, &Table{Schema: lSchema, Rows: (&colData{cols: lc.cols, n: lc.n, sel: lsels[b]}).materialize()})
		r.spillWrite(shard, rpath, &Table{Schema: rSchema, Rows: (&colData{cols: rc.cols, n: rc.n, sel: rsels[b]}).materialize()})
		lt, err := r.spillRead(shard, lpath)
		if err != nil {
			return nil, nil, err
		}
		rt, err := r.spillRead(shard, rpath)
		if err != nil {
			return nil, nil, err
		}
		lb := colsFromRows(len(lc.cols), lt.Rows)
		// Block join: the build side loads in budget-sized chunks and
		// the whole probe bucket scans against each. Key-hash
		// recursion cannot split one hot key's duplicates, but
		// arbitrary build chunks can — the caller's (probe, build)
		// pair sort makes chunk boundaries invisible in the output.
		chunkRows := int(r.budget / buildWidth)
		if chunkRows < 1 {
			chunkRows = 1
		}
		for lo := 0; lo < len(rt.Rows); lo += chunkRows {
			hi := lo + chunkRows
			if hi > len(rt.Rows) {
				hi = len(rt.Rows)
			}
			rb := colsFromRows(len(rc.cols), rt.Rows[lo:hi])
			lp, rp := joinPart(lb, rb, lIdx, rIdx, intKeys, lsels[b], rsels[b][lo:hi], shard)
			lpos = append(lpos, lp...)
			rpos = append(rpos, rp...)
		}
		r.spillRemove(lpath)
		r.spillRemove(rpath)
	}
	return lpos, rpos, nil
}
