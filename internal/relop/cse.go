package relop

// Scalar-expression CSE: the optimizer shares whole relational
// subtrees, but a projection like
//
//	SELECT (width+1)*(width+1) AS area, (width+1)*(width+1) > 100 AS big
//
// still recomputes (width+1) and its square once per reference when
// expressions are evaluated as independent trees. BuildExprDAG
// collapses structurally identical subexpressions (equal String
// renderings — the package's canonical signature) across a node's
// expression list into a DAG, so a batch evaluator computes each
// distinct subexpression once per batch and serves further references
// from a cached vector. This is the scalar-level analogue of the
// plan-level spool sharing, after DuckDB's cse_optimizer.

// ExprDAGNode is one distinct subexpression of an ExprDAG.
type ExprDAGNode struct {
	// Expr is the subexpression, shared with the input trees.
	Expr Scalar
	// Op, L, R describe a binary node: L and R are child node ids.
	// Leaves (column references and constants) have L = R = -1.
	Op   BinKind
	L, R int
	// Refs counts references to this node from parent nodes and from
	// the root list. Refs > 1 on an interior node marks a common
	// subexpression whose re-evaluations CSE avoids.
	Refs int
	// Unguarded reports that the node is reachable outside every
	// AND/OR right operand. Guarded-only nodes must not be hoisted to
	// eager whole-batch evaluation: row-at-a-time semantics may never
	// evaluate them on short-circuited rows (e.g. a division kept
	// safe by its guard), so an eager evaluator could fail on rows
	// the row oracle skips.
	Unguarded bool
}

// ExprDAG is the shared form of a list of expression trees. Nodes are
// in topological order (children strictly before parents); Roots[i]
// is the node evaluating the i-th input expression.
type ExprDAG struct {
	Nodes []ExprDAGNode
	Roots []int
}

// BuildExprDAG dedupes the given expression trees into one DAG.
func BuildExprDAG(exprs []Scalar) *ExprDAG {
	b := &dagBuilder{index: map[string]int{}}
	for _, e := range exprs {
		id := b.visit(e)
		b.d.Nodes[id].Unguarded = true
		b.d.Roots = append(b.d.Roots, id)
	}
	// Propagate guardedness down the DAG. Parents have larger ids
	// than their children, so one reverse pass sees every node after
	// all of its parents: a node is unguarded iff some reference
	// chain from a root avoids every AND/OR right-operand edge.
	for i := len(b.d.Nodes) - 1; i >= 0; i-- {
		n := &b.d.Nodes[i]
		if !n.Unguarded || n.L < 0 {
			continue
		}
		b.d.Nodes[n.L].Unguarded = true
		if n.Op != OpAnd && n.Op != OpOr {
			b.d.Nodes[n.R].Unguarded = true
		}
	}
	return &b.d
}

type dagBuilder struct {
	d     ExprDAG
	index map[string]int
}

// visit interns e (and, on first sight, its children) and returns its
// node id with the reference counted.
func (b *dagBuilder) visit(e Scalar) int {
	sig := e.String()
	id, ok := b.index[sig]
	if !ok {
		n := ExprDAGNode{Expr: e, L: -1, R: -1}
		if be, isBin := e.(*BinExpr); isBin {
			n.Op = be.Op
			n.L = b.visit(be.L)
			n.R = b.visit(be.R)
		}
		id = len(b.d.Nodes)
		b.d.Nodes = append(b.d.Nodes, n)
		b.index[sig] = id
	}
	b.d.Nodes[id].Refs++
	return id
}

// SharedEvals returns how many interior-node evaluations per input
// row the DAG form saves over evaluating each tree independently:
// the sum of (Refs - 1) over shared interior nodes, counting the
// whole subtree collapsed under each shared reference.
func (d *ExprDAG) SharedEvals() int {
	saved := 0
	sizes := make([]int, len(d.Nodes))
	for i, n := range d.Nodes {
		sizes[i] = 1
		if n.L >= 0 {
			sizes[i] += sizes[n.L] + sizes[n.R]
		}
		if n.L >= 0 && n.Refs > 1 {
			saved += (n.Refs - 1) * sizes[i]
		}
	}
	return saved
}
