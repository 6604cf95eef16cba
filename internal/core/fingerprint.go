// Package core implements the paper's contribution: the framework
// that lets a Cascades-style optimizer exploit common subexpressions
// in a cost-based way.
//
// The four steps of Fig. 2 map onto this package and internal/opt:
//
//	Step 1  IdentifyCommonSubexpressions (Alg. 1)   — this package
//	Step 2  history recording during phase 1        — internal/opt,
//	        using ExpandHistory from this package (Sec. V)
//	Step 3  PropagateSharedGroups + LCAs (Alg. 3)   — this package
//	Step 4  phase-2 re-optimization rounds           — internal/opt,
//	        driven by RoundPlanner from this package (Sec. VII–VIII)
package core

import (
	"repro/internal/memo"
	"repro/internal/relop"
)

// fpModulus is the prime modulus N of Definition 1, large enough that
// FileIDs and OpIDs never collide with each other.
const fpModulus = uint64(1<<61 - 1) // Mersenne prime 2^61-1

// Fingerprints computes the Definition 1 fingerprint of every live
// group's subexpression, bottom-up over the memo DAG:
//
//	leaf (file read):  F = FileID mod N
//	otherwise:         F = (OpID ⊕ ⨁ᵢ F(childᵢ)) mod N
//
// Each group's *initial* expression is used, as Alg. 1 runs before any
// exploration has added alternatives. Equal expressions always get
// equal fingerprints; unequal expressions may collide (the XOR of
// children is order-insensitive, and all group-bys share one OpID),
// which is why Alg. 1 deep-compares colliding entries.
func Fingerprints(m *memo.Memo) map[memo.GroupID]uint64 {
	fps := make(map[memo.GroupID]uint64, m.NumGroups())
	var compute func(g memo.GroupID) uint64
	compute = func(g memo.GroupID) uint64 {
		if fp, ok := fps[g]; ok {
			return fp
		}
		e := m.Group(g).Exprs[0]
		var fp uint64
		if ex, ok := e.Op.(*relop.Extract); ok {
			fp = uint64(ex.FileID) % fpModulus
		} else {
			x := uint64(e.Op.Kind())
			for _, c := range e.Children {
				x ^= compute(c)
			}
			fp = x % fpModulus
		}
		fps[g] = fp
		return fp
	}
	for _, g := range m.Groups() {
		compute(g.ID)
	}
	return fps
}

// StructurallyEqual reports whether the subexpressions rooted at a and
// b compute the same result: their initial operators have equal
// signatures and their children are pairwise structurally equal. It
// is the deep comparison Alg. 1 applies to fingerprint collisions
// (line 5).
func StructurallyEqual(m *memo.Memo, a, b memo.GroupID) bool {
	return newEquality(m, nil).equal(a, b)
}

// equality deep-compares subexpressions of one memo, remembering what
// it learns: verdicts per group pair and each group's rendered
// operator signature. Alg. 1 compares every pair of a fingerprint
// bucket, and the pairs of one bucket descend into the same children
// again and again (a chain of forty identical projections is forty
// buckets of pairs over the same forty groups), so one equality per
// pass renders each signature once instead of once per visit.
type equality struct {
	m *memo.Memo
	// fps, when non-nil, short-circuits pairs with different
	// fingerprints: equal expressions always fingerprint equally.
	fps   map[memo.GroupID]uint64
	sigs  map[memo.GroupID]string
	known map[[2]memo.GroupID]bool
}

func newEquality(m *memo.Memo, fps map[memo.GroupID]uint64) *equality {
	return &equality{m: m, fps: fps, sigs: map[memo.GroupID]string{}, known: map[[2]memo.GroupID]bool{}}
}

func (q *equality) sig(g memo.GroupID) string {
	s, ok := q.sigs[g]
	if !ok {
		s = q.m.Group(g).Exprs[0].Op.Sig()
		q.sigs[g] = s
	}
	return s
}

func (q *equality) equal(a, b memo.GroupID) bool {
	if a == b {
		return true
	}
	if q.fps != nil && q.fps[a] != q.fps[b] {
		return false
	}
	k := [2]memo.GroupID{a, b}
	if a > b {
		k = [2]memo.GroupID{b, a}
	}
	if v, ok := q.known[k]; ok {
		return v
	}
	// Seed false to terminate would-be cycles; the memo DAG is
	// acyclic so this is only a safeguard.
	q.known[k] = false
	ea, eb := q.m.Group(a).Exprs[0], q.m.Group(b).Exprs[0]
	ok := len(ea.Children) == len(eb.Children) && q.sig(a) == q.sig(b)
	if ok {
		for i := range ea.Children {
			if !q.equal(ea.Children[i], eb.Children[i]) {
				ok = false
				break
			}
		}
	}
	q.known[k] = ok
	return ok
}
