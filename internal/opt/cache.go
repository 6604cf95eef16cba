package opt

import (
	"sync"

	"repro/internal/core"
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
	// with the given identity, canonical signature, and schema.
	// Implementations must verify the full signature string and the
	// schema, not just the identity — a signature hash may alias — and
	// must check their invalidation epochs before answering.
	Lookup(id core.Subexpr, sig string, schema relop.Schema) (CacheEntry, bool)
}

// hitSet records the groups whose cache lookup hit during one search.
// Round workers add to it concurrently; the union is deterministic
// because every worker's lookups are.
type hitSet struct {
	mu     sync.Mutex
	groups map[memo.GroupID]bool // guarded by mu
}

// newHitSet returns an empty set when a cache is configured, nil
// otherwise.
func newHitSet(c ResultCache) *hitSet {
	if c == nil {
		return nil
	}
	return &hitSet{groups: map[memo.GroupID]bool{}}
}

func (h *hitSet) add(g memo.GroupID) {
	h.mu.Lock()
	h.groups[g] = true
	h.mu.Unlock()
}

// set returns the recorded groups; callers read it once the search is
// over.
func (h *hitSet) set() map[memo.GroupID]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.groups
}

// cacheScanCandidate returns a CacheScan leaf alternative for group g
// when the session cache holds a valid artifact for g's subexpression.
// Spool groups match on their input computation: a consumer script
// that uses the subexpression only once has no spool, so the cache is
// keyed by the bare expression's identity.
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
	id, ok := o.ids[lookup]
	if !ok {
		return alternative{}, false
	}
	entry, ok := o.opts.Cache.Lookup(id, o.sigs[lookup], g.Props.Schema)
	if !ok {
		return alternative{}, false
	}
	o.hits.add(lookup)
	return o.price(g, &relop.PhysCacheScan{
		Path:    entry.Path,
		Columns: g.Props.Schema,
		Part:    entry.Part,
		Order:   entry.Order,
		FP:      id.FP,
	}, nil, id.FP), true
}
