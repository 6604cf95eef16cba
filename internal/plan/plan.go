// Package plan represents executable physical plans extracted from the
// memo, and implements the two cost views the paper's comparison
// needs:
//
//   - TreeCost charges every operator once per reference path — the
//     cost a conventional optimizer computes, where a shared
//     subexpression consumed k times is (implicitly) executed k times.
//
//   - DAGCost charges each distinct materialized Spool subplan once
//     plus one read per consumer — the true cost of a plan that
//     executes a common subexpression once. Plans without spools have
//     identical Tree and DAG costs, so the conventional baseline is
//     priced consistently.
package plan

import (
	"math"

	"repro/internal/cost"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

// Node is one operator of a physical plan. Children may be shared
// (the same *Node referenced by several parents) when consumers agreed
// on an optimization context; sharing is only executable across a
// Spool, which DAGCost and the executor both rely on.
//
// Nodes are immutable once an optimizer returns them in a Result: the
// search caches winners and DAG costs by node pointer, and several
// plans may share one subtree. Nothing is memoized on the node itself,
// though — TreeCost and DAGCost are pure walks over OpCost — so a test
// that doctors a copy's costs sees them in every cost view.
type Node struct {
	// Op is the physical operator.
	Op relop.Operator
	// Children are the input plans.
	Children []*Node
	// Group is the memo group this node implements.
	Group props.GroupID
	// CtxKey identifies the optimization context (required properties
	// plus pins) the node was chosen under; two references to one
	// group with equal CtxKey are the same physical computation.
	CtxKey string
	// Schema is the node's output schema.
	Schema relop.Schema
	// Rel is the node's estimated output statistics.
	Rel stats.Relation
	// Dlvd is the node's delivered physical properties.
	Dlvd props.Delivered
	// OpCost is the operator's own estimated cost (excluding
	// children).
	OpCost float64
	// FP is the Definition-1 fingerprint of the logical subexpression
	// this node computes, when known (zero otherwise). Spools carry
	// their input computation's fingerprint; enforcers carry none.
	// Session caches use it to match plan nodes against cached
	// artifacts, and it survives the JSON round-trip so reloaded
	// plans can participate in caching.
	FP uint64
}

// SpoolID identifies a distinct materialization: two references to one
// group under one context are the same physical computation. The DAG
// cost model, the executor's single-flight spools, the lint analyzers
// and the session's admission all key spools by it.
type SpoolID struct {
	Group props.GroupID
	Ctx   string
}

// SpoolID returns the node's materialization identity.
func (n *Node) SpoolID() SpoolID { return SpoolID{n.Group, n.CtxKey} }

// IsSpool reports whether the node materializes its input.
func (n *Node) IsSpool() bool {
	_, ok := n.Op.(*relop.PhysSpool)
	return ok
}

// TreeCost returns the conventional per-reference cost of the plan:
// every node is charged once for each path from the root that reaches
// it. Shared pointers are handled in linear time via memoized subtree
// sums (the multiplicity is implicit in parents re-adding the child's
// subtree sum). A node's sum is its OpCost plus its children's sums in
// child order; the optimizer's search carries the same sum on its
// winners, added in the same order, instead of calling this per
// alternative.
func TreeCost(root *Node) float64 {
	cache := map[*Node]float64{}
	var walk func(n *Node) float64
	walk = func(n *Node) float64 {
		if c, ok := cache[n]; ok {
			return c
		}
		sum := n.OpCost
		for _, ch := range n.Children {
			sum += walk(ch)
		}
		cache[n] = sum
		return sum
	}
	return walk(root)
}

// DAGCost returns the cost of the plan executed as a DAG: each
// distinct Spool materialization (identified by memo group and
// context) is charged once — its subtree plus the materialization
// write — and every reference to it is charged one spool read. All
// other operators are charged once per reference path, as they truly
// execute per consumer.
func DAGCost(root *Node, m cost.Model) float64 {
	c, _ := DAGCostBounded(root, m, math.Inf(1))
	return c
}

// DAGCostBounded is DAGCost with a branch-and-bound upper limit: the
// accumulation aborts the moment the partial total exceeds bound,
// returning (+Inf, true). Operator and spool-read costs are
// non-negative, so every partial total is a lower bound of the final
// DAG cost and the early exit is sound: a pruned plan provably costs
// more than bound. A bound of +Inf never prunes and returns the exact
// cost.
func DAGCostBounded(root *Node, m cost.Model, bound float64) (float64, bool) {
	order := topoOrder(root)
	em := make(map[*Node]float64, len(order))
	em[root] = 1
	seenSpool := map[SpoolID]bool{}
	total := 0.0
	for _, n := range order {
		e := em[n]
		if e == 0 {
			continue
		}
		if n.IsSpool() {
			total += e * m.SpoolReadCost(n.Rel, n.Dlvd.Part)
			if k := n.SpoolID(); !seenSpool[k] {
				seenSpool[k] = true
				total += n.OpCost
				for _, c := range n.Children {
					em[c]++
				}
			}
		} else {
			total += e * n.OpCost
			for _, c := range n.Children {
				em[c] += e
			}
		}
		if total > bound {
			return math.Inf(1), true
		}
	}
	return total, false
}

// topoOrder returns the pointer DAG's nodes with every parent before
// any of its children.
func topoOrder(root *Node) []*Node {
	// Kahn's algorithm over reference counts. A node enters indeg at
	// its first reference, which is also when its subtree is walked.
	indeg := map[*Node]int{}
	var discover func(n *Node)
	discover = func(n *Node) {
		for _, c := range n.Children {
			indeg[c]++
			if indeg[c] == 1 {
				discover(c)
			}
		}
	}
	discover(root)
	// order doubles as the work queue: nodes are appended when their
	// last parent has been emitted and processed in append order.
	order := make([]*Node, 1, len(indeg)+1)
	order[0] = root
	for i := 0; i < len(order); i++ {
		for _, c := range order[i].Children {
			indeg[c]--
			if indeg[c] == 0 {
				order = append(order, c)
			}
		}
	}
	return order
}

// Operators returns the plan's distinct nodes in topological order
// (parents first). Spool subtrees referenced several times appear
// once.
func Operators(root *Node) []*Node {
	return topoOrder(root)
}

// CountOps returns the number of distinct operator nodes and the
// number of exchange (Repartition) nodes, useful in tests and
// experiment reports.
func CountOps(root *Node) (total, exchanges int) {
	for _, n := range topoOrder(root) {
		total++
		if _, ok := n.Op.(*relop.Repartition); ok {
			exchanges++
		}
	}
	return
}

// FindAll returns the distinct nodes whose operator kind matches k.
func FindAll(root *Node, k relop.OpKind) []*Node {
	var out []*Node
	for _, n := range topoOrder(root) {
		if n.Op.Kind() == k {
			out = append(out, n)
		}
	}
	return out
}

// RefCount returns how many times operators of kind k effectively
// execute under the plan's DAG semantics: per reference path, except
// that each distinct Spool materialization counts its subtree once.
// A conventional S1 plan reads the input twice (RefCount of
// PhysExtract = 2); the Fig. 8(b) plan reads it once.
func RefCount(root *Node, k relop.OpKind) float64 {
	order := topoOrder(root)
	em := make(map[*Node]float64, len(order))
	em[root] = 1
	seenSpool := map[SpoolID]bool{}
	total := 0.0
	for _, n := range order {
		e := em[n]
		if e == 0 {
			continue
		}
		if n.Op.Kind() == k {
			total += e
		}
		if n.IsSpool() {
			if key := n.SpoolID(); !seenSpool[key] {
				seenSpool[key] = true
				for _, c := range n.Children {
					em[c]++
				}
			}
			continue
		}
		for _, c := range n.Children {
			em[c] += e
		}
	}
	return total
}
