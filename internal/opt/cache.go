package opt

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/plan"
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
}

// Artifact is one result of a chosen plan that a cross-query cache may
// keep: a distinct non-broadcast spool, under the identity of the
// subexpression it materializes, with the two costs the admission rule
// weighs. The optimizer lists a plan's artifacts once per search
// (Result.Artifacts); sessions admit from the list and the workload
// planner prices from it, so neither walks the plan for spools.
type Artifact struct {
	// Spool is the plan's spool node; its input (see Input) is the
	// materialized subexpression, whose schema and delivered layout the
	// artifact keeps.
	Spool *plan.Node
	// ID and Sig are the subexpression's identity and full canonical
	// signature.
	ID  core.Subexpr
	Sig string
	// Build is the tree cost of computing and materializing the
	// subexpression once; Read is the modeled cost of one consumer
	// scanning the artifact under its delivered layout.
	Build float64
	Read  float64
}

// Input is the materialized subexpression's plan.
func (a Artifact) Input() *plan.Node { return a.Spool.Children[0] }

// Entry is the cache entry the artifact becomes when stored at path.
func (a Artifact) Entry(path string) CacheEntry {
	in := a.Input()
	return CacheEntry{Path: path, Schema: in.Schema, Part: in.Dlvd.Part, Order: in.Dlvd.Order}
}

// Matches reports whether a is the artifact of signature sig under
// schema — the check a cache lookup makes beyond the identity, so two
// signatures whose hashes alias never share an artifact.
func (a Artifact) Matches(sig string, schema relop.Schema) bool {
	return a.Sig == sig && slices.Equal(a.Input().Schema, schema)
}

// artifacts lists p's artifacts in plan order, one per distinct spool
// (plan.SpoolID). Broadcast spools are left out — their replicas are
// layout, not content — and so is a spool whose input has no identity.
func (o *Optimizer) artifacts(p *plan.Node) []Artifact {
	var out []Artifact
	seen := map[plan.SpoolID]bool{}
	for _, sp := range plan.FindAll(p, relop.KindPhysSpool) {
		in := sp.Children[0]
		sig := o.sigs[in.Group]
		if in.Dlvd.Part.Kind == props.PartBroadcast || in.FP == 0 || sig == "" || seen[sp.SpoolID()] {
			continue
		}
		seen[sp.SpoolID()] = true
		out = append(out, Artifact{
			Spool: sp, ID: o.ids[in.Group], Sig: sig,
			Build: plan.TreeCost(sp),
			Read:  o.model.SpoolReadCost(in.Rel, in.Dlvd.Part),
		})
	}
	return out
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

// Probe is one cache lookup a search made: the group whose CacheScan
// candidate asked, and the artifact path the cache answered ("" for a
// miss). A path names one artifact for its whole life, so two equal
// answers are the same entry under the same recorded layout.
type Probe struct {
	Group memo.GroupID
	Path  string
}

// probeLog records every cache lookup of one search, one answer per
// asking group. Round workers add to it concurrently; the set of
// lookups is deterministic because every worker's lookups are.
type probeLog struct {
	mu      sync.Mutex
	answers map[memo.GroupID]answer // guarded by mu
	n       int                     // guarded by mu
	// split is set when one group got two different answers — the cache
	// changed under the search, so its record describes no single state.
	split bool // guarded by mu
}

// answer is one group's lookup result and when the group last asked.
type answer struct {
	path string
	last int
}

// newProbeLog returns an empty log when a cache is configured, nil
// otherwise.
func newProbeLog(c ResultCache) *probeLog {
	if c == nil {
		return nil
	}
	return &probeLog{answers: map[memo.GroupID]answer{}}
}

func (p *probeLog) add(g memo.GroupID, path string) {
	p.mu.Lock()
	if old, seen := p.answers[g]; seen && old.path != path {
		p.split = true
	}
	p.n++
	p.answers[g] = answer{path: path, last: p.n}
	p.mu.Unlock()
}

// record returns the lookups in the order of each group's last lookup —
// re-asking them in that order leaves a cache's recency order where the
// search left it — and false when some group got two different answers.
// Callers read it once the search is over.
func (p *probeLog) record() ([]Probe, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	groups := make([]memo.GroupID, 0, len(p.answers))
	for g := range p.answers {
		groups = append(groups, g)
	}
	slices.SortFunc(groups, func(a, b memo.GroupID) int {
		return cmp.Compare(p.answers[a].last, p.answers[b].last)
	})
	out := make([]Probe, len(groups))
	for i, g := range groups {
		out[i] = Probe{Group: g, Path: p.answers[g].path}
	}
	return out, !p.split
}

// hitGroups returns the groups whose subexpression a recorded lookup
// found cached — what lint P6 checks the chosen plan against.
func (o *Optimizer) hitGroups(probes []Probe) map[memo.GroupID]bool {
	hits := map[memo.GroupID]bool{}
	for _, p := range probes {
		if p.Path == "" {
			continue
		}
		if target, ok := o.lookupTarget(o.m.Group(p.Group)); ok {
			hits[target] = true
		}
	}
	return hits
}

// lookupTarget returns the group whose subexpression identifies g's
// cached artifact, and false when g is never looked up. Spool groups
// match on their input computation: a consumer script that uses the
// subexpression only once has no spool, so the cache is keyed by the
// bare expression's identity.
func (o *Optimizer) lookupTarget(g *memo.Group) (memo.GroupID, bool) {
	if len(g.Exprs) == 0 {
		return 0, false
	}
	target := g.ID
	switch g.Exprs[0].Op.(type) {
	case *relop.Spool:
		target = g.Exprs[0].Children[0]
	case *relop.Output, *relop.Sequence:
		// Side-effecting operators must execute.
		return 0, false
	}
	_, ok := o.ids[target]
	return target, ok
}

// ask looks g's artifact up in the cache under target's identity and
// g's schema. The answer's path is "" on a miss.
func (o *Optimizer) ask(g *memo.Group, target memo.GroupID) (CacheEntry, bool) {
	entry, ok := o.opts.Cache.Lookup(o.ids[target], o.sigs[target], g.Props.Schema)
	if !ok {
		return CacheEntry{}, false
	}
	return entry, true
}

// cacheScanCandidate returns a CacheScan leaf alternative for group g
// when the session cache holds a valid artifact for g's subexpression,
// and records the lookup.
func (o *Optimizer) cacheScanCandidate(g *memo.Group) (alternative, bool) {
	if o.opts.Cache == nil {
		return alternative{}, false
	}
	target, ok := o.lookupTarget(g)
	if !ok {
		return alternative{}, false
	}
	entry, ok := o.ask(g, target)
	o.probes.add(g.ID, entry.Path)
	if !ok {
		return alternative{}, false
	}
	fp := o.ids[target].FP
	return o.price(g, &relop.PhysCacheScan{
		Path:    entry.Path,
		Columns: g.Props.Schema,
		Part:    entry.Part,
		Order:   entry.Order,
		FP:      fp,
	}, nil, fp), true
}
