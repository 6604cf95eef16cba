package opt

import (
	"repro/internal/memo"
	"repro/internal/props"
	"repro/internal/relop"
)

// CacheEntry describes one materialized artifact a session cache
// offers to the optimizer: where the result lives, what it looks
// like, and the physical properties it was materialized under. The
// recorded Part/Order are the cross-query half of the Sec. V property
// history — a hit delivering hash{A,B} satisfies a consumer requiring
// colocation on {A,B} without a repartition.
type CacheEntry struct {
	// Path is the artifact's FileStore path.
	Path string
	// Schema is the artifact's schema.
	Schema relop.Schema
	// Part and Order are the delivered physical properties recorded
	// when the artifact was materialized.
	Part  props.Partitioning
	Order props.Ordering
	// FP is the Definition-1 fingerprint of the cached
	// subexpression.
	FP uint64
}

// ResultCache is the interface a cross-query result cache implements
// for the optimizer. It is defined here (not in internal/share) so
// the optimizer does not depend on the session machinery.
type ResultCache interface {
	// Lookup returns a valid cached artifact for the subexpression
	// with the given fingerprint, canonical signature, and schema.
	// Implementations must verify all three — fingerprints collide by
	// design — and must check their invalidation epochs before
	// answering.
	Lookup(fp uint64, sig string, schema relop.Schema) (CacheEntry, bool)
	// Holds reports whether a valid artifact exists for fp,
	// regardless of signature — the loose probe the P6 lint analyzer
	// uses to flag plans that rebuild a cached subexpression.
	Holds(fp uint64) bool
}

// cacheScanCandidate returns a CacheScan leaf alternative for group g
// when the session cache holds a valid artifact for g's subexpression.
// Spool groups match on their input computation: a consumer script
// that uses the subexpression only once has no spool, so the cache is
// keyed by the bare expression's fingerprint.
func (o *Optimizer) cacheScanCandidate(g *memo.Group) (alternative, bool) {
	if o.opts.Cache == nil || len(g.Exprs) == 0 {
		return alternative{}, false
	}
	lookup := g.ID
	switch g.Exprs[0].Op.(type) {
	case *relop.Spool:
		lookup = g.Exprs[0].Children[0]
	case *relop.Output, *relop.Sequence:
		// Side-effecting operators must execute.
		return alternative{}, false
	}
	fp, ok := o.fps[lookup]
	if !ok {
		return alternative{}, false
	}
	entry, ok := o.opts.Cache.Lookup(fp, o.sigs[lookup], g.Props.Schema)
	if !ok {
		return alternative{}, false
	}
	return o.price(g, &relop.PhysCacheScan{
		Path:    entry.Path,
		Columns: g.Props.Schema,
		Part:    entry.Part,
		Order:   entry.Order,
		FP:      fp,
	}, nil, fp), true
}
