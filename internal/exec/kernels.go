package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/relop"
)

// This file is the executor's operators: typed columnar kernels for
// every physical operator, driven by the same runner, span structure,
// and metering as the row oracle in rowops.go. The contract is strict
// bit-identity — outputs, Core metrics, and trace trees must match
// the row oracle at any worker width — so every kernel mirrors its
// row counterpart's semantics exactly, including the quirks
// (integer-only filter truthiness, integer-only AND/OR short-
// circuiting, rendered-string group equality, float aggregation
// state). The speed comes from typed column loops, pre-resolved
// column indexes, batch-level scalar CSE, and selection vectors that
// make filter a zero-copy operation.

// prog is a compiled expression program: the CSE-shared DAG of one
// operator's expressions plus pre-resolved input column indexes.
type prog struct {
	dag  *relop.ExprDAG
	cols []int // per node: input column index for ColRef nodes, else -1
}

func compileProg(exprs []relop.Scalar, schema relop.Schema) (*prog, error) {
	dag := relop.BuildExprDAG(exprs)
	p := &prog{dag: dag, cols: make([]int, len(dag.Nodes))}
	for i := range dag.Nodes {
		p.cols[i] = -1
		if cr, ok := dag.Nodes[i].Expr.(*relop.ColRef); ok {
			j := schema.Index(cr.Name)
			if j < 0 {
				return nil, fmt.Errorf("column %q not in schema %v", cr.Name, schema)
			}
			p.cols[i] = j
		}
	}
	return p, nil
}

// vecEval evaluates one compiled program over one batch. Node results
// computed at the batch's full selection are memoized, so a shared
// subexpression evaluates once per batch and later references hit the
// memo — the execution half of scalar CSE. AND/OR right operands
// evaluate only under the sub-selection of rows whose left operand
// did not short-circuit, and such guarded results are never memoized:
// a division the row oracle skips on short-circuited rows is never
// evaluated here either.
type vecEval struct {
	p    *prog
	in   *colData
	sel  []int32
	memo []*Vector
	hits int64 // row evaluations served from the memo
}

func newVecEval(p *prog, in *colData) *vecEval {
	return &vecEval{p: p, in: in, sel: in.positions(), memo: make([]*Vector, len(p.dag.Nodes))}
}

func (e *vecEval) root(i int) (*Vector, error) {
	return e.eval(e.p.dag.Roots[i], e.sel, true)
}

func (e *vecEval) eval(id int, sel []int32, top bool) (*Vector, error) {
	nd := &e.p.dag.Nodes[id]
	if m := e.memo[id]; m != nil {
		if nd.L >= 0 {
			e.hits += int64(len(sel))
		}
		return m, nil
	}
	var out *Vector
	var err error
	switch {
	case e.p.cols[id] >= 0:
		out = e.in.cols[e.p.cols[id]]
	case nd.L < 0:
		out = constVector(nd.Expr.(*relop.ConstExpr).Val, e.in.n)
	case nd.Op == relop.OpAnd || nd.Op == relop.OpOr:
		out, err = e.evalBool(nd, sel, top)
	default:
		var l, r *Vector
		if l, err = e.eval(nd.L, sel, top); err != nil {
			return nil, err
		}
		if r, err = e.eval(nd.R, sel, top); err != nil {
			return nil, err
		}
		out, err = binVec(nd.Op, l, r, sel, e.in.n)
	}
	if err != nil {
		return nil, err
	}
	if top {
		e.memo[id] = out
	}
	return out, nil
}

// evalBool evaluates AND/OR with the row oracle's exact semantics:
// only an *integer* left operand short-circuits (false for AND, true
// for OR); every other row evaluates the right operand, and the
// result is the truthiness combination.
func (e *vecEval) evalBool(nd *relop.ExprDAGNode, sel []int32, top bool) (*Vector, error) {
	l, err := e.eval(nd.L, sel, top)
	if err != nil {
		return nil, err
	}
	isAnd := nd.Op == relop.OpAnd
	lsc := intTruthAt(l)
	out := make([]bool, e.in.n)
	need := sel[:0:0]
	for _, i := range sel {
		isInt, t := lsc(i)
		if isInt && t != isAnd {
			// AND short-circuits on false, OR on true.
			out[i] = !isAnd
			continue
		}
		need = append(need, i)
	}
	if len(need) > 0 {
		r, err := e.eval(nd.R, need, false)
		if err != nil {
			return nil, err
		}
		rt := truthyAt(r)
		for _, i := range need {
			_, lt := lsc(i)
			if isAnd {
				out[i] = lt && rt(i)
			} else {
				out[i] = lt || rt(i)
			}
		}
	}
	return &Vector{bools: out, n: e.in.n}, nil
}

// ---- positional accessors -------------------------------------------------

// intTruthAt classifies position i of v: whether the value is
// integer-kinded (comparison results included) and whether it is
// truthy.
func intTruthAt(v *Vector) func(int32) (bool, bool) {
	switch {
	case v.bools != nil:
		xs := v.bools
		return func(i int32) (bool, bool) { return true, xs[v.ix(i)] }
	case v.ints != nil:
		xs := v.ints
		return func(i int32) (bool, bool) { return true, xs[v.ix(i)] != 0 }
	case v.floats != nil:
		xs := v.floats
		return func(i int32) (bool, bool) { return false, xs[v.ix(i)] != 0 }
	case v.strs != nil:
		xs := v.strs
		return func(i int32) (bool, bool) { return false, xs[v.ix(i)] != "" }
	default:
		xs := v.vals
		return func(i int32) (bool, bool) {
			x := xs[v.ix(i)]
			return x.Kind == relop.TInt, relop.Truthy(x)
		}
	}
}

func truthyAt(v *Vector) func(int32) bool {
	f := intTruthAt(v)
	return func(i int32) bool { _, t := f(i); return t }
}

// intAt reads integer-class vectors (ints or bools) as int64.
func intAt(v *Vector) func(int32) int64 {
	if v.bools != nil {
		xs := v.bools
		return func(i int32) int64 {
			if xs[v.ix(i)] {
				return 1
			}
			return 0
		}
	}
	xs := v.ints
	if v.cons {
		c := xs[0]
		return func(int32) int64 { return c }
	}
	return func(i int32) int64 { return xs[i] }
}

// floatAt reads any vector with Value.AsFloat semantics (strings read
// the zero float field).
func floatAt(v *Vector) func(int32) float64 {
	switch {
	case v.ints != nil:
		xs := v.ints
		if v.cons {
			c := float64(xs[0])
			return func(int32) float64 { return c }
		}
		return func(i int32) float64 { return float64(xs[i]) }
	case v.floats != nil:
		xs := v.floats
		if v.cons {
			c := xs[0]
			return func(int32) float64 { return c }
		}
		return func(i int32) float64 { return xs[i] }
	case v.strs != nil:
		return func(int32) float64 { return 0 }
	case v.bools != nil:
		xs := v.bools
		return func(i int32) float64 {
			if xs[v.ix(i)] {
				return 1
			}
			return 0
		}
	default:
		xs := v.vals
		return func(i int32) float64 { return xs[v.ix(i)].AsFloat() }
	}
}

func strAt(v *Vector) func(int32) string {
	xs := v.strs
	if v.cons {
		c := xs[0]
		return func(int32) string { return c }
	}
	return func(i int32) string { return xs[i] }
}

type vecClass int

const (
	vcInt vecClass = iota // ints or bools
	vcFloat
	vcStr
	vcAny
)

func classOf(v *Vector) vecClass {
	switch {
	case v.floats != nil:
		return vcFloat
	case v.strs != nil:
		return vcStr
	case v.vals != nil:
		return vcAny
	default:
		return vcInt
	}
}

// ---- binary kernels -------------------------------------------------------

// binVec applies op positionally at the selected positions; the
// output has physical length n with defined values only at sel.
func binVec(op relop.BinKind, l, r *Vector, sel []int32, n int) (*Vector, error) {
	switch op {
	case relop.OpAdd:
		return addVec(l, r, sel, n), nil
	case relop.OpSub, relop.OpMul:
		return arithVec(op, l, r, sel, n), nil
	case relop.OpDiv:
		return divVec(l, r, sel, n)
	case relop.OpEq, relop.OpNe, relop.OpLt, relop.OpLe, relop.OpGt, relop.OpGe:
		return cmpVec(op, l, r, sel, n), nil
	default:
		// AND/OR route through evalBool; anything else is a new
		// operator the kernels do not know yet.
		return nil, fmt.Errorf("unknown binary op %v", op)
	}
}

// bothInt exposes a pair of integer-backed vectors (excluding bools,
// which go through the generic path so 0/1 rendering stays in one
// place) as slices with a per-element stride (0 for constants).
func bothInt(l, r *Vector) (lx, rx []int64, ls, rs int, ok bool) {
	if l.ints == nil || r.ints == nil {
		return nil, nil, 0, 0, false
	}
	ls, rs = 1, 1
	if l.cons {
		ls = 0
	}
	if r.cons {
		rs = 0
	}
	return l.ints, r.ints, ls, rs, true
}

func addVec(l, r *Vector, sel []int32, n int) *Vector {
	if lx, rx, ls, rs, ok := bothInt(l, r); ok {
		out := make([]int64, n)
		for _, i := range sel {
			out[i] = lx[int(i)*ls] + rx[int(i)*rs]
		}
		return &Vector{ints: out, n: n}
	}
	if l.strs != nil && r.strs != nil {
		la, ra := strAt(l), strAt(r)
		out := make([]string, n)
		for _, i := range sel {
			out[i] = la(i) + ra(i)
		}
		return &Vector{strs: out, n: n}
	}
	if l.vals != nil || r.vals != nil || l.bools != nil || r.bools != nil ||
		(l.strs != nil) != (r.strs != nil) {
		// Mixed or untyped inputs: Value.Add per position keeps the
		// promotion rules (including int+int staying int when a
		// comparison result meets an integer) in one place.
		la, ra := valAt(l), valAt(r)
		out := make([]relop.Value, n)
		for _, i := range sel {
			out[i] = la(i).Add(ra(i))
		}
		return &Vector{vals: out, n: n}
	}
	la, ra := floatAt(l), floatAt(r)
	out := make([]float64, n)
	for _, i := range sel {
		out[i] = la(i) + ra(i)
	}
	return &Vector{floats: out, n: n}
}

func valAt(v *Vector) func(int32) relop.Value { return v.At }

func arithVec(op relop.BinKind, l, r *Vector, sel []int32, n int) *Vector {
	if lx, rx, ls, rs, ok := bothInt(l, r); ok {
		out := make([]int64, n)
		if op == relop.OpSub {
			for _, i := range sel {
				out[i] = lx[int(i)*ls] - rx[int(i)*rs]
			}
		} else {
			for _, i := range sel {
				out[i] = lx[int(i)*ls] * rx[int(i)*rs]
			}
		}
		return &Vector{ints: out, n: n}
	}
	if l.vals != nil || r.vals != nil || l.bools != nil || r.bools != nil {
		la, ra := valAt(l), valAt(r)
		out := make([]relop.Value, n)
		for _, i := range sel {
			v, _ := relop.EvalBin(op, la(i), ra(i))
			out[i] = v
		}
		return &Vector{vals: out, n: n}
	}
	// Any remaining mix (ints/floats/strings) subtracts or multiplies
	// as floats, exactly like evalBin's AsFloat fallback.
	la, ra := floatAt(l), floatAt(r)
	out := make([]float64, n)
	if op == relop.OpSub {
		for _, i := range sel {
			out[i] = la(i) - ra(i)
		}
	} else {
		for _, i := range sel {
			out[i] = la(i) * ra(i)
		}
	}
	return &Vector{floats: out, n: n}
}

func divVec(l, r *Vector, sel []int32, n int) (*Vector, error) {
	la, ra := floatAt(l), floatAt(r)
	out := make([]float64, n)
	for _, i := range sel {
		d := ra(i)
		if d == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		out[i] = la(i) / d
	}
	return &Vector{floats: out, n: n}, nil
}

func cmpVec(op relop.BinKind, l, r *Vector, sel []int32, n int) *Vector {
	out := make([]bool, n)
	if l.ints != nil && r.ints != nil && !l.cons && !r.cons {
		lx, rx := l.ints, r.ints
		for _, i := range sel {
			out[i] = cmpSat(op, cmpInt64(lx[i], rx[i]))
		}
		return &Vector{bools: out, n: n}
	}
	cf := compareAt(l, r)
	for _, i := range sel {
		out[i] = cmpSat(op, cf(i))
	}
	return &Vector{bools: out, n: n}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compareAt returns a positional comparator with Value.Compare
// semantics: exact int-int comparison, float comparison across
// numeric kinds, lexicographic strings, numbers before strings.
func compareAt(l, r *Vector) func(int32) int {
	lc, rc := classOf(l), classOf(r)
	switch {
	case lc == vcInt && rc == vcInt:
		la, ra := intAt(l), intAt(r)
		return func(i int32) int { return cmpInt64(la(i), ra(i)) }
	case (lc == vcInt || lc == vcFloat) && (rc == vcInt || rc == vcFloat):
		la, ra := floatAt(l), floatAt(r)
		return func(i int32) int { return cmpFloat64(la(i), ra(i)) }
	case lc == vcStr && rc == vcStr:
		la, ra := strAt(l), strAt(r)
		return func(i int32) int {
			a, b := la(i), ra(i)
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
	default:
		la, ra := valAt(l), valAt(r)
		return func(i int32) int { return la(i).Compare(ra(i)) }
	}
}

func cmpSat(op relop.BinKind, c int) bool {
	switch op {
	case relop.OpEq:
		return c == 0
	case relop.OpNe:
		return c != 0
	case relop.OpLt:
		return c < 0
	case relop.OpLe:
		return c <= 0
	case relop.OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

// selFromPred derives the surviving selection from a predicate
// vector. A row passes only when its value is an *integer* nonzero —
// relop truthiness is wider, but the row oracle's filter is exactly
// this test, so floats and strings never pass.
func selFromPred(v *Vector, sel []int32) []int32 {
	out := make([]int32, 0, len(sel))
	switch {
	case v.bools != nil:
		xs := v.bools
		for _, i := range sel {
			if xs[i] {
				out = append(out, i)
			}
		}
	case v.ints != nil:
		if v.cons {
			if v.ints[0] != 0 {
				return append(out, sel...)
			}
			return out
		}
		xs := v.ints
		for _, i := range sel {
			if xs[i] != 0 {
				out = append(out, i)
			}
		}
	case v.vals != nil:
		xs := v.vals
		for _, i := range sel {
			if x := xs[v.ix(i)]; x.Kind == relop.TInt && x.I != 0 {
				out = append(out, i)
			}
		}
	}
	return out
}

// ---- key encoding ---------------------------------------------------------

// intBacked reports a vector every element of which is integer-
// kinded at the row boundary.
func intBacked(v *Vector) bool { return v.ints != nil || v.bools != nil }

// allIntKeys reports whether the key columns of every partition are
// integer-backed, enabling fixed-width key encoding.
func allIntKeys(parts []*colData, keyIdx []int) bool {
	for _, c := range parts {
		if c == nil {
			continue
		}
		for _, j := range keyIdx {
			if !intBacked(c.cols[j]) {
				return false
			}
		}
	}
	return true
}

// keyEncoder returns a function appending row i's key encoding to
// buf. With intKeys, keys encode as fixed 8-byte big-endian words;
// otherwise as rendered values "v|v|...", which is exactly the row
// engine's keyOf and therefore its group-equality relation (int 2
// and float 2.0 render alike). The intKeys fast path is only sound
// when every partition of every input is integer-backed — rendered
// "2" must never meet encoded 2 — which allIntKeys establishes up
// front.
func keyEncoder(c *colData, keyIdx []int, intKeys bool) func(i int32, buf []byte) []byte {
	if intKeys {
		gets := make([]func(int32) int64, len(keyIdx))
		for k, j := range keyIdx {
			gets[k] = intAt(c.cols[j])
		}
		return func(i int32, buf []byte) []byte {
			for _, g := range gets {
				u := uint64(g(i))
				buf = append(buf, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
					byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
			}
			return buf
		}
	}
	cols := make([]*Vector, len(keyIdx))
	for k, j := range keyIdx {
		cols[k] = c.cols[j]
	}
	return func(i int32, buf []byte) []byte {
		for _, v := range cols {
			buf = append(buf, v.At(i).String()...)
			buf = append(buf, '|')
		}
		return buf
	}
}

// renderKeyAt renders a row's key exactly like keyOf, for messages.
func renderKeyAt(c *colData, keyIdx []int, i int32) string {
	s := ""
	for _, j := range keyIdx {
		s += c.cols[j].At(i).String() + "|"
	}
	return s
}

// ---- hashing --------------------------------------------------------------

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnv64aBytes(b []byte) uint64 {
	h := fnvOffset64
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

func fnv64aString(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnv64aInt(x int64) uint64 {
	h := fnvOffset64
	u := uint64(x)
	for i := 0; i < 8; i++ {
		h = (h ^ (u >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}

// vecHashCols computes Row.HashCols for the selected positions
// column-wise: per-value FNV-64a hashes combined positionally with
// the same offset/prime fold, so hash repartitioning routes every
// row to the same machine as the row oracle does.
func vecHashCols(c *colData, pos []int32, idx []int) []uint64 {
	hs := make([]uint64, len(pos))
	for i := range hs {
		hs[i] = fnvOffset64
	}
	var buf []byte
	for _, j := range idx {
		v := c.cols[j]
		switch {
		case v.ints != nil && !v.cons:
			xs := v.ints
			for k, p := range pos {
				hs[k] = (hs[k] ^ fnv64aInt(xs[p])) * fnvPrime64
			}
		case v.strs != nil && !v.cons:
			xs := v.strs
			for k, p := range pos {
				hs[k] = (hs[k] ^ fnv64aString(xs[p])) * fnvPrime64
			}
		case v.floats != nil && !v.cons:
			xs := v.floats
			for k, p := range pos {
				buf = appendFloatG(buf[:0], xs[p])
				hs[k] = (hs[k] ^ fnv64aBytes(buf)) * fnvPrime64
			}
		default:
			// Constants, bools, and mixed columns: Value.Hash per
			// position (bools hash as 0/1 ints, like At renders them).
			for k, p := range pos {
				hs[k] = (hs[k] ^ v.At(p).Hash()) * fnvPrime64
			}
		}
	}
	return hs
}

// ---- operator kernels -----------------------------------------------------

func (r *runner) vextract(op *relop.PhysExtract, sp obs.Span) (*pdata, error) {
	t, ok := r.c.FS.Get(op.Path)
	if !ok {
		return nil, fmt.Errorf("exec: input file %q not found", op.Path)
	}
	idx, ok := t.Schema.Indexes(op.Columns.Names())
	if !ok {
		return nil, fmt.Errorf("exec: file %q schema %v missing extract columns %v",
			op.Path, t.Schema, op.Columns.Names())
	}
	out := newVData(op.Columns, r.c.Machines)
	width := int64(len(op.Columns)) * 8
	if err := r.forEach(sp, "part", r.c.Machines, func(m int, shard *Metrics) error {
		// Round-robin distribution: machine m owns rows m, m+M, ...
		cols := make([]*Vector, len(idx))
		rows := 0
		for j, k := range idx {
			cols[j] = buildColStrided(t.Rows, m, r.c.Machines, k)
			rows = cols[j].n
		}
		out.vparts[m] = &colData{cols: cols, n: rows}
		shard.BatchesProcessed++
		shard.DiskBytesRead += int64(rows) * width
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// buildColStrided builds one extract column from every stride-th row
// starting at first, column-major: one kind check per value against
// the column's first value, typed appends into a preallocated
// backing. On any kind mismatch it falls back to the generic
// vecBuilder over the same values, so the resulting vector is
// representation-identical to the builder's in every case.
func buildColStrided(rows []relop.Row, first, stride, k int) *Vector {
	n := 0
	if first < len(rows) {
		n = (len(rows)-first-1)/stride + 1
	}
	if n == 0 {
		return &Vector{ints: []int64{}}
	}
	kind := rows[first][k].Kind
	switch kind {
	case relop.TInt:
		xs := make([]int64, 0, n)
		for i := first; i < len(rows); i += stride {
			v := rows[i][k]
			if v.Kind != relop.TInt {
				return buildColSlow(rows, first, stride, k)
			}
			xs = append(xs, v.I)
		}
		return &Vector{ints: xs, n: n}
	case relop.TFloat:
		xs := make([]float64, 0, n)
		for i := first; i < len(rows); i += stride {
			v := rows[i][k]
			if v.Kind != relop.TFloat {
				return buildColSlow(rows, first, stride, k)
			}
			xs = append(xs, v.F)
		}
		return &Vector{floats: xs, n: n}
	default:
		xs := make([]string, 0, n)
		for i := first; i < len(rows); i += stride {
			v := rows[i][k]
			if v.Kind != kind {
				return buildColSlow(rows, first, stride, k)
			}
			xs = append(xs, v.S)
		}
		return &Vector{strs: xs, n: n}
	}
}

func buildColSlow(rows []relop.Row, first, stride, k int) *Vector {
	var b vecBuilder
	for i := first; i < len(rows); i += stride {
		b.add(rows[i][k])
	}
	return b.vec()
}

// vcacheScan attaches a cached artifact in its recorded partitions
// (cacheArtifact) and converts each partition to columnar form.
func (r *runner) vcacheScan(op *relop.PhysCacheScan, sp obs.Span) (*pdata, error) {
	parts, err := r.cacheArtifact(op, sp)
	if err != nil {
		return nil, err
	}
	out := newVData(op.Columns, r.c.Machines)
	for m, rows := range parts {
		out.vparts[m] = colsFromRows(len(op.Columns), rows)
	}
	return out, nil
}

func (r *runner) vfilter(op *relop.PhysFilter, in *pdata, sp obs.Span) (*pdata, error) {
	pg, err := compileProg([]relop.Scalar{op.Pred}, in.schema)
	if err != nil {
		return nil, err
	}
	out := newVData(in.schema, r.c.Machines)
	out.broadcast = in.broadcast
	if err := r.forEach(sp, "part", len(in.vparts), func(m int, shard *Metrics) error {
		c := in.vparts[m]
		ev := newVecEval(pg, c)
		pv, err := ev.root(0)
		if err != nil {
			return err
		}
		// Zero-copy: the output shares the input's column vectors and
		// narrows the selection.
		out.vparts[m] = &colData{cols: c.cols, n: c.n, sel: selFromPred(pv, ev.sel)}
		shard.BatchesProcessed++
		shard.ScalarCSEHits += ev.hits
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *runner) vproject(op *relop.PhysProject, in *pdata, schema relop.Schema, sp obs.Span) (*pdata, error) {
	exprs := make([]relop.Scalar, len(op.Items))
	for i, it := range op.Items {
		exprs[i] = it.Expr
	}
	pg, err := compileProg(exprs, in.schema)
	if err != nil {
		return nil, err
	}
	out := newVData(schema, r.c.Machines)
	out.broadcast = in.broadcast
	if err := r.forEach(sp, "part", len(in.vparts), func(m int, shard *Metrics) error {
		c := in.vparts[m]
		ev := newVecEval(pg, c)
		cols := make([]*Vector, len(exprs))
		for j := range exprs {
			v, err := ev.root(j)
			if err != nil {
				return err
			}
			cols[j] = v
		}
		out.vparts[m] = &colData{cols: cols, n: c.n, sel: c.sel}
		shard.BatchesProcessed++
		shard.ScalarCSEHits += ev.hits
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *runner) vsort(order props.Ordering, in *pdata, spillBase string, sp obs.Span) (*pdata, error) {
	out := newVData(in.schema, r.c.Machines)
	out.broadcast = in.broadcast
	if err := r.forEach(sp, "part", len(in.vparts), func(m int, shard *Metrics) error {
		s, err := r.sortPart(in.vparts[m].compact(), in.schema, order, spillBase, m, shard)
		if err != nil {
			return err
		}
		out.vparts[m] = s
		shard.BatchesProcessed++
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// sortPart sorts one dense partition, spilling to an external merge
// sort when the buffer would exceed the memory budget. Both paths
// are stable, so the result equals the row oracle's stable sort.
func (r *runner) sortPart(c *colData, schema relop.Schema, order props.Ordering, spillBase string, m int, shard *Metrics) (*colData, error) {
	idx, err := orderIdx(order, schema)
	if err != nil {
		return nil, err
	}
	bytes := int64(c.n) * int64(len(c.cols)) * 8
	if r.budget > 0 && bytes > r.budget && spillBase != "" {
		return r.externalSort(c, schema, order, idx, spillBase, m, shard)
	}
	recordPeak(shard, bytes)
	perm := sortedPerm(c, order, idx)
	cols := make([]*Vector, len(c.cols))
	for j, v := range c.cols {
		cols[j] = v.gather(perm)
	}
	return &colData{cols: cols, n: c.n}, nil
}

// orderIdx resolves ordering columns (same error as sortRows).
func orderIdx(order props.Ordering, schema relop.Schema) ([]int, error) {
	idx := make([]int, len(order))
	for i, sc := range order {
		j := schema.Index(sc.Col)
		if j < 0 {
			return nil, fmt.Errorf("exec: sort column %q not in schema %v", sc.Col, schema)
		}
		idx[i] = j
	}
	return idx, nil
}

// sortedPerm stable-sorts the identity permutation of a dense batch
// by the ordering, with typed per-column comparators. Stability comes
// from an explicit original-position tiebreak, which lets the
// unstable pdqsort replace the much slower stable merge while
// producing the row oracle's exact order.
func sortedPerm(c *colData, order props.Ordering, idx []int) []int32 {
	perm := make([]int32, c.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if len(idx) == 1 {
		if v := c.cols[idx[0]]; v.ints != nil && !v.cons {
			if sortPermInt(perm, v.ints[:c.n], order[0].Desc) {
				return perm
			}
		}
	}
	cmps := make([]func(a, b int32) int, len(idx))
	for k, j := range idx {
		cmps[k] = colComparator(c.cols[j])
	}
	sort.Slice(perm, func(x, y int) bool {
		a, b := perm[x], perm[y]
		for k := range cmps {
			cv := cmps[k](a, b)
			if order[k].Desc {
				cv = -cv
			}
			if cv != 0 {
				return cv < 0
			}
		}
		return a < b
	})
	return perm
}

// sortPermInt sorts perm by a single plain-int key column when the
// key range fits in 32 bits: each row packs as biased-key<<32 |
// original-index, so a flat []uint64 sort orders by key with the
// index bits breaking ties in original order — the stable order,
// without per-comparison closure calls. Reports false (perm
// untouched) when the key range is too wide for the trick.
func sortPermInt(perm []int32, xs []int64, desc bool) bool {
	if len(xs) == 0 {
		return true
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rng := uint64(hi) - uint64(lo)
	if rng > math.MaxUint32 {
		return false
	}
	if rng < uint64(len(xs)) {
		// Few distinct values relative to rows: counting sort, two
		// passes instead of n log n. Scanning rows in original order
		// within each key bucket is exactly the index tiebreak.
		counts := make([]int32, rng+1)
		for _, v := range xs {
			counts[uint64(v)-uint64(lo)]++
		}
		offs := make([]int32, rng+1)
		var acc int32
		if desc {
			for k := int64(rng); k >= 0; k-- {
				offs[k] = acc
				acc += counts[k]
			}
		} else {
			for k := range offs {
				offs[k] = acc
				acc += counts[k]
			}
		}
		for i, v := range xs {
			k := uint64(v) - uint64(lo)
			perm[offs[k]] = int32(i)
			offs[k]++
		}
		return true
	}
	packed := make([]uint64, len(xs))
	if desc {
		for i, v := range xs {
			packed[i] = (uint64(hi)-uint64(v))<<32 | uint64(uint32(i))
		}
	} else {
		for i, v := range xs {
			packed[i] = (uint64(v)-uint64(lo))<<32 | uint64(uint32(i))
		}
	}
	slices.Sort(packed)
	for i, p := range packed {
		perm[i] = int32(uint32(p))
	}
	return true
}

// colComparator compares two positions of one vector with
// Value.Compare semantics.
func colComparator(v *Vector) func(a, b int32) int {
	switch {
	case v.ints != nil && !v.cons:
		xs := v.ints
		return func(a, b int32) int { return cmpInt64(xs[a], xs[b]) }
	case v.floats != nil && !v.cons:
		xs := v.floats
		return func(a, b int32) int { return cmpFloat64(xs[a], xs[b]) }
	case v.strs != nil && !v.cons:
		xs := v.strs
		return func(a, b int32) int {
			switch {
			case xs[a] < xs[b]:
				return -1
			case xs[a] > xs[b]:
				return 1
			default:
				return 0
			}
		}
	default:
		return func(a, b int32) int { return v.At(a).Compare(v.At(b)) }
	}
}

// vunion concatenates inputs partition-wise (UNION ALL).
func (r *runner) vunion(ins []*pdata, schema relop.Schema, sp obs.Span) (*pdata, error) {
	for _, in := range ins {
		if in.broadcast {
			return nil, fmt.Errorf("exec: union over broadcast input would multiply rows")
		}
	}
	out := newVData(schema, r.c.Machines)
	if err := r.forEach(sp, "part", r.c.Machines, func(m int, shard *Metrics) error {
		parts := make([]*colData, len(ins))
		for i, in := range ins {
			parts[i] = in.vparts[m].compact()
		}
		out.vparts[m] = concatCols(len(schema), parts)
		shard.BatchesProcessed++
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *runner) vrepartition(op *relop.Repartition, in *pdata, spillBase string, sp obs.Span) (*pdata, error) {
	r.meter(func(m *Metrics) { m.Exchanges++ })
	src := in.vparts
	if in.broadcast {
		src = []*colData{in.vparts[0]}
	}
	srcBytes := in.logicalBytes()
	out := newVData(in.schema, r.c.Machines)
	width := len(in.schema)
	switch op.To.Kind {
	case props.PartSerial:
		parts := make([]*colData, len(src))
		for s, c := range src {
			parts[s] = c.compact()
		}
		out.vparts[0] = concatCols(width, parts)
		for m := 1; m < len(out.vparts); m++ {
			out.vparts[m] = emptyCols(width)
		}
		r.meter(func(m *Metrics) { m.NetBytes += srcBytes })
	case props.PartBroadcast:
		parts := make([]*colData, len(src))
		for s, c := range src {
			parts[s] = c.compact()
		}
		all := concatCols(width, parts)
		for m := range out.vparts {
			out.vparts[m] = all
		}
		out.broadcast = true
		r.meter(func(m *Metrics) { m.NetBytes += srcBytes * int64(r.c.Machines) })
	case props.PartHash:
		idx, ok := in.schema.Indexes(op.To.Cols.Cols())
		if !ok {
			return nil, fmt.Errorf("exec: repartition columns %v not in schema %v", op.To.Cols, in.schema)
		}
		dests := func(_ int, c *colData, pos []int32) []int {
			hs := vecHashCols(c, pos, idx)
			ds := make([]int, len(pos))
			for k, h := range hs {
				ds[k] = int(h % uint64(r.c.Machines))
			}
			return ds
		}
		if err := r.vscatter(src, out, dests, sp); err != nil {
			return nil, err
		}
	case props.PartRange:
		// Range boundaries come from distinct key quantiles over the
		// whole input; reuse the row oracle's boundary construction on
		// materialized rows so kernels and oracle route identically.
		mats := make([][]relop.Row, len(src))
		for s, c := range src {
			mats[s] = c.materialize()
		}
		dest, err := rangeDest(op.To.SortCols, in.schema, mats, r.c.Machines)
		if err != nil {
			return nil, err
		}
		dests := func(s int, _ *colData, pos []int32) []int {
			ds := make([]int, len(pos))
			for k := range pos {
				ds[k] = dest(mats[s][k])
			}
			return ds
		}
		if err := r.vscatter(src, out, dests, sp); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("exec: cannot repartition to %v", op.To)
	}
	if !op.MergeOrder.Empty() {
		// Merge receive: each machine merges the sorted streams it
		// received; a stable sort achieves the same result.
		if err := r.forEach(sp, "merge", len(out.vparts), func(m int, shard *Metrics) error {
			s, err := r.sortPart(out.vparts[m].compact(), in.schema, op.MergeOrder, spillBase, m, shard)
			if err != nil {
				return err
			}
			out.vparts[m] = s
			shard.BatchesProcessed++
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// vscatter routes the visible rows of every source batch to their
// destination machines: per-source staging gathers destination
// sub-batches, then each destination concatenates them in source
// order — identical row order to the row oracle's scatter.
func (r *runner) vscatter(src []*colData, out *pdata, dests func(s int, c *colData, pos []int32) []int, sp obs.Span) error {
	machines := len(out.vparts)
	width := int64(len(out.schema)) * 8
	stage := make([][]*colData, len(src))
	if err := r.forEach(sp, "send", len(src), func(s int, shard *Metrics) error {
		c := src[s]
		pos := c.positions()
		ds := dests(s, c, pos)
		sels := make([][]int32, machines)
		for k, i := range pos {
			d := ds[k]
			sels[d] = append(sels[d], i)
		}
		buckets := make([]*colData, machines)
		for d := range buckets {
			cols := make([]*Vector, len(c.cols))
			for j, v := range c.cols {
				cols[j] = v.gather(sels[d])
			}
			buckets[d] = &colData{cols: cols, n: len(sels[d])}
		}
		stage[s] = buckets
		shard.NetBytes += int64(len(pos)) * width
		shard.BatchesProcessed++
		return nil
	}); err != nil {
		return err
	}
	return r.forEach(sp, "recv", machines, func(d int, shard *Metrics) error {
		parts := make([]*colData, len(stage))
		for s := range stage {
			parts[s] = stage[s][d]
		}
		out.vparts[d] = concatCols(len(out.schema), parts)
		shard.BatchesProcessed++
		return nil
	})
}

// aggGroups is one partition's grouping result before output
// assembly: per group, the original position of its first row, its
// encoded key, and its aggregation states, in first-appearance
// order.
type aggGroups struct {
	firsts []int32
	keys   []string
	states [][]relop.AggState
}

// vaggregate implements stream and hash aggregation over one
// partitioned batch, with the row oracle's clustering and colocation
// validation and, for hash aggregation, grace-partitioned spilling
// when the group table would exceed the memory budget.
func (r *runner) vaggregate(keys []string, aggs []relop.Aggregate, phase relop.AggPhase, in *pdata, schema relop.Schema, stream bool, spillBase string, sp obs.Span) (*pdata, error) {
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
	intKeys := allIntKeys(in.vparts, keyIdx)
	outWidth := int64(len(keys) + len(aggs))
	out := newVData(schema, r.c.Machines)
	partKeys := make([][]string, len(in.vparts))
	if err := r.forEach(sp, "part", len(in.vparts), func(m int, shard *Metrics) error {
		c := in.vparts[m].compact()
		var g *aggGroups
		var err error
		bound := int64(c.n) * outWidth * 8
		if !stream && spillBase != "" && r.budget > 0 && bound > r.budget {
			g, err = r.graceAgg(c, in.schema, keyIdx, argIdx, aggs, intKeys, spillBase, m, shard)
		} else {
			g, err = aggPart(c, keyIdx, argIdx, aggs, intKeys, stream, r.c.Validate, keys, shard)
		}
		if err != nil {
			return err
		}
		out.vparts[m] = assembleAgg(c, keyIdx, aggs, g)
		partKeys[m] = g.keys
		shard.BatchesProcessed++
		return nil
	}); err != nil {
		return nil, err
	}
	if r.c.Validate && phase != relop.AggLocal {
		globalSeen := map[string]int{}
		for m, order := range partKeys {
			for _, k := range order {
				if prev, dup := globalSeen[k]; dup && prev != m {
					return nil, fmt.Errorf("exec: %v aggregation on %v saw key %s on machines %d and %d (input not colocated)",
						phase, keys, decodeKey(k, intKeys), prev, m)
				}
				globalSeen[k] = m
			}
		}
	}
	return out, nil
}

// decodeKey renders an encoded key for error messages: fixed-width
// int encodings decode back to "v|v|..." form; rendered encodings
// already are that form.
func decodeKey(k string, intKeys bool) string {
	if !intKeys {
		return k
	}
	s := ""
	for len(k) >= 8 {
		var u uint64
		for i := 0; i < 8; i++ {
			u = u<<8 | uint64(k[i])
		}
		s += relop.IntVal(int64(u)).String() + "|"
		k = k[8:]
	}
	return s
}

// encIntKey is keyEncoder's single-int encoding as a standalone
// string: 8 big-endian bytes.
func encIntKey(k int64) string {
	u := uint64(k)
	b := [8]byte{byte(u >> 56), byte(u >> 48), byte(u >> 40), byte(u >> 32),
		byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}
	return string(b[:])
}

// aggPart groups one dense batch in memory. Streaming mode validates
// run clustering exactly like the row oracle (a closed key must not
// reappear).
func aggPart(c *colData, keyIdx, argIdx []int, aggs []relop.Aggregate, intKeys, stream, validate bool, keys []string, shard *Metrics) (*aggGroups, error) {
	args := make([]func(int32) relop.Value, len(argIdx))
	// Plain-int argument columns accumulate via AddInt — identical
	// folds (same per-row float additions, same min/max) without
	// boxing each value.
	fastInts := make([][]int64, len(argIdx))
	for a, j := range argIdx {
		if j >= 0 {
			if v := c.cols[j]; v.ints != nil && !v.cons {
				fastInts[a] = v.ints
			} else {
				args[a] = valAt(c.cols[j])
			}
		}
	}
	g := &aggGroups{}
	var closed []bool
	newGroup := func(i int32, key string) int32 {
		gi := int32(len(g.firsts))
		g.firsts = append(g.firsts, i)
		g.keys = append(g.keys, key)
		sts := make([]relop.AggState, len(aggs))
		for a := range aggs {
			sts[a] = *relop.NewAggState(aggs[a].Func)
		}
		g.states = append(g.states, sts)
		closed = append(closed, false)
		return gi
	}
	// Group lookup. Single-int keys index a map[int64] directly —
	// int64 equality is exactly 8-byte-encoding equality, and groups
	// still get their encoded string key (colocation validation and
	// grace remapping read g.keys) — it is just built once per group
	// instead of once per row.
	var lookup func(i int32) int32
	if intKeys && len(keyIdx) == 1 {
		get := intAt(c.cols[keyIdx[0]])
		index := make(map[int64]int32, 64)
		lookup = func(i int32) int32 {
			k := get(i)
			gi, seen := index[k]
			if !seen {
				gi = newGroup(i, encIntKey(k))
				index[k] = gi
			}
			return gi
		}
	} else {
		enc := keyEncoder(c, keyIdx, intKeys)
		index := map[string]int32{}
		var buf []byte
		lookup = func(i int32) int32 {
			buf = enc(i, buf[:0])
			gi, seen := index[string(buf)]
			if !seen {
				key := string(buf)
				gi = newGroup(i, key)
				index[key] = gi
			}
			return gi
		}
	}
	lastG := int32(-1)
	for i := int32(0); int(i) < c.n; i++ {
		gi := lookup(i)
		if stream && validate && gi != lastG {
			// Clustering check: once a run for a key ends, the key
			// must not reappear in this partition.
			if closed[gi] {
				return nil, fmt.Errorf("exec: stream aggregation input not clustered on %v (key %s reappeared)",
					keys, renderKeyAt(c, keyIdx, i))
			}
			if lastG >= 0 {
				closed[lastG] = true
			}
			lastG = gi
		}
		sts := g.states[gi]
		for a := range aggs {
			switch {
			case fastInts[a] != nil:
				sts[a].AddInt(fastInts[a][i])
			case argIdx[a] < 0:
				sts[a].AddInt(1)
			default:
				sts[a].Add(args[a](i))
			}
		}
	}
	if !stream {
		// Only hash aggregation's table counts as budget-governed
		// scratch; stream aggregation's state is bounded by its
		// (clustered) output, which resident accounting excludes like
		// any other pipeline-owned batch.
		recordPeak(shard, int64(len(g.firsts))*int64(len(keyIdx)+len(aggs))*8)
	}
	return g, nil
}

// assembleAgg builds the output batch: key columns gathered from
// each group's first row, aggregate columns from the states, groups
// in first-appearance order.
func assembleAgg(c *colData, keyIdx []int, aggs []relop.Aggregate, g *aggGroups) *colData {
	cols := make([]*Vector, 0, len(keyIdx)+len(aggs))
	for _, j := range keyIdx {
		cols = append(cols, c.cols[j].gather(g.firsts))
	}
	for a := range aggs {
		var b vecBuilder
		for gi := range g.states {
			b.add(g.states[gi][a].Result())
		}
		cols = append(cols, b.vec())
	}
	return &colData{cols: cols, n: len(g.firsts)}
}

// vjoin performs a per-machine hash join of co-located partitions,
// building on the right input like the row oracle, with a grace
// hash-partitioned spill when the build side exceeds the memory
// budget.
func (r *runner) vjoin(lKeys, rKeys []string, l, rIn *pdata, schema relop.Schema, spillBase string, sp obs.Span) (*pdata, error) {
	lIdx, ok := l.schema.Indexes(lKeys)
	if !ok {
		return nil, fmt.Errorf("exec: left join keys %v not in %v", lKeys, l.schema)
	}
	rIdx, ok := rIn.schema.Indexes(rKeys)
	if !ok {
		return nil, fmt.Errorf("exec: right join keys %v not in %v", rKeys, rIn.schema)
	}
	// One key encoding across both sides of every partition: probe
	// keys must meet build keys in the same representation.
	intKeys := allIntKeys(l.vparts, lIdx) && allIntKeys(rIn.vparts, rIdx)
	out := newVData(schema, r.c.Machines)
	if err := r.forEach(sp, "part", r.c.Machines, func(m int, shard *Metrics) error {
		lc := l.vparts[m].compact()
		rc := rIn.vparts[m].compact()
		var lpos, rpos []int32
		var err error
		buildBytes := int64(rc.n) * int64(len(rc.cols)) * 8
		if spillBase != "" && r.budget > 0 && buildBytes > r.budget {
			lpos, rpos, err = r.graceJoin(lc, rc, l.schema, rIn.schema, lIdx, rIdx, intKeys, spillBase, m, shard)
		} else {
			lpos, rpos = joinPart(lc, rc, lIdx, rIdx, intKeys, nil, nil, shard)
		}
		if err != nil {
			return err
		}
		cols := make([]*Vector, 0, len(lc.cols)+len(rc.cols))
		for _, v := range lc.cols {
			cols = append(cols, v.gather(lpos))
		}
		for _, v := range rc.cols {
			cols = append(cols, v.gather(rpos))
		}
		out.vparts[m] = &colData{cols: cols, n: len(lpos)}
		shard.BatchesProcessed++
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// joinPart hash-joins two dense batches, emitting matching position
// pairs in the row oracle's order: probe rows in order, matches in
// build order. When lmap/rmap are non-nil they translate bucket-
// local positions back to the original batch (grace join buckets).
func joinPart(lc, rc *colData, lIdx, rIdx []int, intKeys bool, lmap, rmap []int32, shard *Metrics) (lpos, rpos []int32) {
	recordPeak(shard, int64(rc.n)*int64(len(rc.cols))*8)
	if intKeys && len(lIdx) == 1 && len(rIdx) == 1 {
		return joinPartInt(lc, rc, lIdx[0], rIdx[0], lmap, rmap)
	}
	encR := keyEncoder(rc, rIdx, intKeys)
	index := map[string]int32{}
	var lists [][]int32
	var buf []byte
	for i := int32(0); int(i) < rc.n; i++ {
		buf = encR(i, buf[:0])
		gi, ok := index[string(buf)]
		if !ok {
			gi = int32(len(lists))
			index[string(buf)] = gi
			lists = append(lists, nil)
		}
		ri := i
		if rmap != nil {
			ri = rmap[i]
		}
		lists[gi] = append(lists[gi], ri)
	}
	encL := keyEncoder(lc, lIdx, intKeys)
	for i := int32(0); int(i) < lc.n; i++ {
		buf = encL(i, buf[:0])
		gi, ok := index[string(buf)]
		if !ok {
			continue
		}
		li := i
		if lmap != nil {
			li = lmap[i]
		}
		for _, ri := range lists[gi] {
			lpos = append(lpos, li)
			rpos = append(rpos, ri)
		}
	}
	return lpos, rpos
}

// joinPartInt is joinPart's single-int-key fast path: the hash index
// keys raw int64s instead of encoded strings. int64 equality is
// exactly 8-byte-encoding equality, so the match set, group ids, and
// therefore output order are byte-identical to the general path.
// Build rows sharing a key chain through flat head/tail/next arrays
// (insertion order, i.e. build order) instead of per-key slices.
func joinPartInt(lc, rc *colData, lj, rj int, lmap, rmap []int32) (lpos, rpos []int32) {
	getR := intAt(rc.cols[rj])
	index := make(map[int64]int32, rc.n)
	heads := make([]int32, 0, rc.n)
	tails := make([]int32, 0, rc.n)
	next := make([]int32, rc.n)
	for i := int32(0); int(i) < rc.n; i++ {
		k := getR(i)
		gi, ok := index[k]
		if !ok {
			index[k] = int32(len(heads))
			heads = append(heads, i)
			tails = append(tails, i)
		} else {
			next[tails[gi]] = i
			tails[gi] = i
		}
		next[i] = -1
	}
	getL := intAt(lc.cols[lj])
	lpos = make([]int32, 0, lc.n)
	rpos = make([]int32, 0, lc.n)
	for i := int32(0); int(i) < lc.n; i++ {
		gi, ok := index[getL(i)]
		if !ok {
			continue
		}
		li := i
		if lmap != nil {
			li = lmap[i]
		}
		for j := heads[gi]; j >= 0; j = next[j] {
			ri := j
			if rmap != nil {
				ri = rmap[j]
			}
			lpos = append(lpos, li)
			rpos = append(rpos, ri)
		}
	}
	return lpos, rpos
}

// appendFloatG renders a float exactly like Value.Hash's
// strconv.FormatFloat(f, 'g', -1, 64), reusing buf.
func appendFloatG(buf []byte, f float64) []byte {
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}
