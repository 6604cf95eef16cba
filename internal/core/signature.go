package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/memo"
	"repro/internal/relop"
)

// CanonicalSignatures computes a canonical structural signature for
// every live group's initial subexpression. Two groups in *different*
// memos get equal signatures exactly when they compute the same
// relation modulo the rewrites the binder does not normalize itself:
// the top-level conjuncts of a Filter predicate are sorted, so
// `WHERE a > 1 AND b < 5` and `WHERE b < 5 AND a > 1` sign
// identically.
//
// Definition-1 fingerprints are collision-prone by design (the XOR of
// children is order-insensitive and all operators of one kind share
// an OpID); within a single memo Alg. 1 resolves collisions with
// StructurallyEqual, but a cross-query cache cannot deep-compare into
// a memo that no longer exists. The canonical signature is the
// persistent stand-in: cache keys pair (fingerprint, signature,
// schema) so near-miss expressions that share a fingerprint never
// alias a cached artifact.
func CanonicalSignatures(m *memo.Memo) map[memo.GroupID]string {
	sigs := make(map[memo.GroupID]string, m.NumGroups())
	var compute func(g memo.GroupID) string
	compute = func(g memo.GroupID) string {
		if s, ok := sigs[g]; ok {
			return s
		}
		e := m.Group(g).Exprs[0]
		var b strings.Builder
		b.WriteString(canonicalOpSig(e.Op))
		b.WriteByte('[')
		for i, c := range e.Children {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(compute(c))
		}
		b.WriteByte(']')
		s := b.String()
		sigs[g] = s
		return s
	}
	for _, g := range m.Groups() {
		compute(g.ID)
	}
	return sigs
}

// Subexpr is the one cross-query identity of a subexpression: its
// Definition-1 fingerprint plus the FNV-64a hash of its canonical
// signature. It is comparable, so every table that keys shared work —
// forced materializations, the session cache and its demand history,
// the service's fold map, the workload DAG — indexes on it directly.
// The 64-bit signature hash makes an accidental alias vanishingly rare
// but not impossible, so a probe that hands out an artifact also
// compares the full signature string it kept beside the entry.
type Subexpr struct {
	FP, Sig uint64
}

// NewSubexpr mints the identity of the subexpression with fingerprint
// fp and canonical signature sig.
func NewSubexpr(fp uint64, sig string) Subexpr {
	h := uint64(14695981039346656037) // FNV-64a offset basis
	for i := 0; i < len(sig); i++ {
		h ^= uint64(sig[i])
		h *= 1099511628211 // FNV-64 prime
	}
	return Subexpr{FP: fp, Sig: h}
}

// String renders the identity in its fixed-width event form,
// fingerprint then signature hash.
func (s Subexpr) String() string { return fmt.Sprintf("%016x.%016x", s.FP, s.Sig) }

// canonicalOpSig is Operator.Sig with order-insensitive parts
// canonicalized: Filter sorts its top-level AND conjuncts.
func canonicalOpSig(op relop.Operator) string {
	f, ok := op.(*relop.Filter)
	if !ok {
		return op.Sig()
	}
	conj := flattenAnd(f.Pred, nil)
	sort.Strings(conj)
	return "Filter(" + strings.Join(conj, " AND ") + ")"
}

// flattenAnd collects the string forms of a predicate's top-level AND
// conjuncts.
func flattenAnd(s relop.Scalar, out []string) []string {
	if b, ok := s.(*relop.BinExpr); ok && b.Op == relop.OpAnd {
		return flattenAnd(b.R, flattenAnd(b.L, out))
	}
	return append(out, s.String())
}
