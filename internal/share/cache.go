// Package share implements cross-query common-subexpression sharing:
// a session-scoped cache of materialized intermediate results keyed
// by subexpression identity, and a Session that runs a sequence of
// compiled scripts against one simulated cluster, offering cached
// results to the optimizer and admitting new ones cost-based.
//
// The cache extends the paper's within-query framework across query
// boundaries. Within one script, Algorithm 1 merges equivalent
// subexpressions into shared memo groups and phase 2 reconciles
// their physical properties; across scripts the memo is gone, so
// equivalence is re-established from the Definition-1 fingerprint
// plus a canonical signature (fingerprints collide by design), and
// the recorded delivered properties play the role of the Sec. V
// property history: a hit partitioned on {A,B} satisfies a consumer
// requiring colocation on {A,B} with no exchange.
package share

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/relop"
	"repro/internal/stats"
)

// Source records one input file an artifact was derived from,
// together with the invalidation state observed at materialization
// time: the FileStore content version and the catalog statistics
// epoch. A mismatch on either at lookup time invalidates the entry —
// new data makes the artifact wrong, new statistics make its recorded
// cost basis wrong.
type Source struct {
	Path    string
	Version int64
	Epoch   int64
}

// entry is one cached materialized result.
type entry struct {
	opt.CacheEntry
	id core.Subexpr
	// sig is the full canonical signature; a lookup compares it (and
	// the schema) so two signatures whose hashes alias never share an
	// artifact.
	sig     string
	bytes   int64
	sources []Source
	lastUse int64
	// owner is the tenant whose run admitted the artifact ("" for
	// untagged sessions); per-tenant byte accounting and quotas key
	// on it.
	owner string
	// hits counts runs that planned against this entry (one per run,
	// not per optimizer lookup — the session dedupes). Together with
	// build and read — the admission formula's sides recorded at Put —
	// it drives benefit-aware eviction: evicting a frequently hit,
	// expensive-to-rebuild artifact loses hits×(build−read) of future
	// savings per byte freed.
	hits  int64
	build float64
	read  float64
}

// matches reports whether e is the artifact of signature sig under
// schema.
func (e *entry) matches(sig string, schema relop.Schema) bool {
	return e.sig == sig && slices.Equal(e.Schema, schema)
}

// Stats summarizes cache state and activity.
type Stats struct {
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
	// Insertions, Evictions, and Invalidations count entry lifecycle
	// events: admitted artifacts, LRU/size evictions, and entries
	// dropped because a source table's data or statistics changed.
	Insertions    int64
	Evictions     int64
	Invalidations int64
	// Hits counts run-level uses of cached entries (each run counts a
	// planned-against entry once).
	Hits int64
	// ReuseTracked is the number of distinct subexpression identities
	// with recorded demand history (hits + admission-time misses); the
	// admission formula's reuse estimate is max(history, 1).
	ReuseTracked int
}

// Cache is an identity-keyed store of materialized results. It
// implements opt.ResultCache. Artifacts live in the session's
// FileStore under "__cache/" paths; evicting or invalidating an entry
// removes its artifact. All methods are safe for concurrent use.
type Cache struct {
	fs  *exec.FileStore
	cat *stats.Catalog
	// obs receives the share.cache_* series at the moment an entry is
	// used, inserted, evicted or invalidated, so the registry agrees
	// with Stats whatever became of the run that caused the change. Set
	// by the owning session before its first run; nil is a no-op.
	obs *obs.Registry

	mu       sync.Mutex
	maxBytes int64 // guarded by mu
	// entries holds each identity's schema variants — usually one.
	entries map[core.Subexpr][]*entry // guarded by mu
	count   int                       // guarded by mu
	bytes   int64                     // guarded by mu
	clock   int64                     // guarded by mu
	stats   Stats                     // guarded by mu
	// pins counts in-flight runs still planning against an artifact
	// path; a pinned artifact outlives its entry (see orphans) so a
	// concurrent eviction cannot yank a file out from under an
	// execution that already planned a CacheScan over it.
	pins map[string]int // guarded by mu
	// orphans are artifact paths whose entries were dropped while
	// pinned; the file is removed when the last pin releases.
	orphans map[string]bool // guarded by mu
	// ownerBytes is the current cached payload per admitting tenant.
	ownerBytes map[string]int64 // guarded by mu
	// demand is the observed per-subexpression reuse history: one
	// count per run that either planned against the entry (a hit) or
	// materialized the subexpression anew (an admission-time miss). It
	// outlives evictions — history is about the subexpression, not the
	// artifact.
	demand map[core.Subexpr]int64 // guarded by mu
}

// DefaultCacheBytes is the cache-size bound used when none is given.
const DefaultCacheBytes = 1 << 30

// NewCache returns an empty cache over the session's FileStore and
// catalog, bounded to maxBytes of artifact payload (<= 0 uses
// DefaultCacheBytes).
func NewCache(fs *exec.FileStore, cat *stats.Catalog, maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{
		fs: fs, cat: cat, maxBytes: maxBytes,
		entries:    map[core.Subexpr][]*entry{},
		pins:       map[string]int{},
		orphans:    map[string]bool{},
		ownerBytes: map[string]int64{},
		demand:     map[core.Subexpr]int64{},
	}
}

// NoteUse records that one run planned against the entry for (id,
// sig, schema): it bumps the entry's hit count and the
// subexpression's demand history. Sessions call it once per run per
// distinct subexpression (the optimizer may look an entry up many
// times while exploring contexts; those repeats are not independent
// reuses).
func (c *Cache) NoteUse(id core.Subexpr, sig string, schema relop.Schema) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.findLocked(id, sig, schema); e != nil {
		e.hits++
		c.stats.Hits++
		c.obs.Counter("share.cache_lookup_hits").Add(1)
	}
	c.demand[id]++
}

// NoteDemand records that one run needed the subexpression but found
// no cached artifact (an admission-time miss). Misses count toward
// reuse history exactly like hits: both are evidence a future script
// will want the result.
func (c *Cache) NoteDemand(id core.Subexpr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.demand[id]++
}

// ObservedReuse returns how many past runs demanded the subexpression
// (hits plus admission-time misses). Zero means no history — the
// session's admission then counts one reuse.
func (c *Cache) ObservedReuse(id core.Subexpr) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.demand[id]
}

// findLocked returns the stored entry for (id, sig, schema), valid or
// not. Caller holds c.mu.
func (c *Cache) findLocked(id core.Subexpr, sig string, schema relop.Schema) *entry {
	for _, e := range c.entries[id] {
		if e.matches(sig, schema) {
			return e
		}
	}
	return nil
}

// valid reports whether e's sources are unchanged: same FileStore
// content versions, same catalog statistics epochs.
func (c *Cache) valid(e *entry) bool {
	for _, s := range e.sources {
		if c.fs.Version(s.Path) != s.Version || c.cat.Epoch(s.Path) != s.Epoch {
			return false
		}
	}
	return true
}

// unlinkLocked removes e from the index and the byte accounts, leaving
// its artifact file alone. Caller holds c.mu.
func (c *Cache) unlinkLocked(e *entry) {
	vs := slices.DeleteFunc(c.entries[e.id], func(v *entry) bool { return v == e })
	if len(vs) == 0 {
		delete(c.entries, e.id)
	} else {
		c.entries[e.id] = vs
	}
	c.count--
	c.bytes -= e.bytes
	c.ownerBytes[e.owner] -= e.bytes
	if c.ownerBytes[e.owner] <= 0 {
		delete(c.ownerBytes, e.owner)
	}
}

// dropLocked removes entry e, deleting its artifact (deferred while
// pinned). Caller holds c.mu.
func (c *Cache) dropLocked(e *entry, invalidated bool) {
	c.unlinkLocked(e)
	c.removeArtifactLocked(e.Path)
	if invalidated {
		c.stats.Invalidations++
		c.obs.Counter("share.cache_invalidations").Add(1)
	} else {
		c.stats.Evictions++
		c.obs.Counter("share.cache_evictions").Add(1)
	}
	c.obs.Gauge("share.cache_entries").Set(int64(c.count))
	c.obs.Gauge("share.cache_bytes").Set(c.bytes)
}

// removeArtifactLocked deletes an artifact file, or parks it as an
// orphan while in-flight runs still hold pins on it. Caller holds
// c.mu.
func (c *Cache) removeArtifactLocked(path string) {
	if c.pins[path] > 0 {
		c.orphans[path] = true
		return
	}
	c.fs.Remove(path)
}

// Unpin releases one pinned lookup's reference; the last release of
// an orphaned artifact removes its file.
func (c *Cache) Unpin(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pins[path] <= 1 {
		delete(c.pins, path)
		if c.orphans[path] {
			delete(c.orphans, path)
			c.fs.Remove(path)
		}
		return
	}
	c.pins[path]--
}

// Lookup implements opt.ResultCache: it returns the valid cached
// artifact of signature sig under schema, dropping it first when a
// source mutated. A hit refreshes the entry's LRU position.
func (c *Cache) Lookup(id core.Subexpr, sig string, schema relop.Schema) (opt.CacheEntry, bool) {
	ce, _, ok := c.lookup(id, sig, schema, false)
	return ce, ok
}

// lookup is Lookup with an optional pin on the hit's artifact path,
// taken under the same critical section as the hit, so a concurrent
// eviction can never remove the artifact between the optimizer's
// decision and the run's CacheScan; the caller must Unpin the path
// when the run ends. It also returns the hit's recorded sources, read
// under that lock, which an artifact derived from this one inherits.
func (c *Cache) lookup(id core.Subexpr, sig string, schema relop.Schema, pin bool) (opt.CacheEntry, []Source, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.findLocked(id, sig, schema)
	if e == nil {
		return opt.CacheEntry{}, nil, false
	}
	if !c.valid(e) {
		c.dropLocked(e, true)
		return opt.CacheEntry{}, nil, false
	}
	c.clock++
	e.lastUse = c.clock
	if pin {
		c.pins[e.Path]++
	}
	return e.CacheEntry, e.sources, true
}

// Contains reports whether a valid entry exists for the identity under
// schema, or under any schema when schema is nil, without refreshing
// its LRU position. It trusts the identity alone: the answer steers
// the scheduler's folding, the session's admission and its forced
// materializations, never which artifact a plan reads.
func (c *Cache) Contains(id core.Subexpr, schema relop.Schema) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		i := slices.IndexFunc(c.entries[id], func(e *entry) bool {
			return schema == nil || slices.Equal(e.Schema, schema)
		})
		if i < 0 {
			return false
		}
		e := c.entries[id][i]
		if c.valid(e) {
			return true
		}
		c.dropLocked(e, true)
	}
}

// Put admits one materialized artifact of signature sig under the
// given owner tenant ("" for untagged), recording the admission
// formula's build and read costs for benefit-aware eviction, then
// evicts lowest-benefit entries until the cache fits its byte bound.
// Re-admitting an existing (identity, signature, schema) replaces the
// old entry (and artifact) first but keeps its hit count — the
// subexpression's popularity survives a refresh.
func (c *Cache) Put(ce opt.CacheEntry, id core.Subexpr, sig string, bytes int64, sources []Source, owner string, build, read float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hits int64
	if old := c.findLocked(id, sig, ce.Schema); old != nil {
		hits = old.hits
		c.unlinkLocked(old)
		if old.Path != ce.Path {
			c.removeArtifactLocked(old.Path)
		}
	}
	c.clock++
	c.entries[id] = append(c.entries[id], &entry{
		CacheEntry: ce,
		id:         id,
		sig:        sig,
		bytes:      bytes,
		sources:    sources,
		lastUse:    c.clock,
		owner:      owner,
		hits:       hits,
		build:      build,
		read:       read,
	})
	c.count++
	c.bytes += bytes
	c.ownerBytes[owner] += bytes
	c.stats.Insertions++
	c.obs.Counter("share.cache_insertions").Add(1)
	for c.bytes > c.maxBytes && c.count > 0 {
		c.dropLocked(c.victimLocked(), false)
	}
	c.obs.Gauge("share.cache_entries").Set(int64(c.count))
	c.obs.Gauge("share.cache_bytes").Set(c.bytes)
}

// benefitScore is the eviction weight of an entry: the modeled future
// savings per byte of keeping it — hits × (build − read) normalized
// by artifact size. A never-hit entry counts as one presumed future
// use (admission already judged it worth persisting), so a freshly
// admitted artifact is not instantly dumped from a cache full of
// proven entries; entries whose rebuild is no dearer than reading the
// artifact score zero and go first. Caller holds c.mu.
func benefitScore(e *entry) float64 {
	saving := e.build - e.read
	if saving < 0 {
		saving = 0
	}
	b := e.bytes
	if b < 1 {
		b = 1
	}
	h := e.hits
	if h < 1 {
		h = 1
	}
	return float64(h) * saving / float64(b)
}

// victimLocked picks the eviction victim: the lowest benefit score,
// ties broken least-recently-used — pure LRU degrades gracefully when
// no entry has demonstrated value yet. Caller holds c.mu and
// guarantees the cache is non-empty.
func (c *Cache) victimLocked() *entry {
	var victim *entry
	var vScore float64
	for _, vs := range c.entries {
		for _, e := range vs {
			s := benefitScore(e)
			if victim == nil || s < vScore || (s == vScore && e.lastUse < victim.lastUse) {
				victim, vScore = e, s
			}
		}
	}
	return victim
}

// OwnerBytes returns the cached payload currently attributed to the
// given admitting tenant — the quantity per-tenant quotas bound.
func (c *Cache) OwnerBytes(owner string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ownerBytes[owner]
}

// EntryInfo is the introspection view of one cache entry — what the
// service's GET /cache endpoint reports per artifact. ID renders the
// identity the way event-log subexpression ids do, so an operator can
// join /cache rows against event streams.
type EntryInfo struct {
	ID    string `json:"id"`
	Path  string `json:"path"`
	Owner string `json:"owner,omitempty"`
	Bytes int64  `json:"bytes"`
	Hits  int64  `json:"hits"`
	// Benefit is the eviction weight: hits × (build − read) per byte.
	Benefit float64 `json:"benefit"`
	// Pinned reports whether an in-flight run holds the artifact open.
	Pinned bool `json:"pinned"`
}

// View is a point-in-time introspection snapshot of the cache: every
// entry with its benefit score, per-owner byte totals, and the paths
// still pinned by in-flight runs.
type View struct {
	Stats      Stats            `json:"stats"`
	Entries    []EntryInfo      `json:"entries,omitempty"`
	OwnerBytes map[string]int64 `json:"owner_bytes,omitempty"`
	Pinned     []string         `json:"pinned,omitempty"`
	Orphans    []string         `json:"orphans,omitempty"`
}

// Describe returns the introspection view, deterministically ordered:
// entries by artifact path, pin and orphan paths sorted.
func (c *Cache) Describe() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := View{Stats: c.statsLocked()}
	for _, vs := range c.entries {
		for _, e := range vs {
			v.Entries = append(v.Entries, EntryInfo{
				ID:      e.id.String(),
				Path:    e.Path,
				Owner:   e.owner,
				Bytes:   e.bytes,
				Hits:    e.hits,
				Benefit: benefitScore(e),
				Pinned:  c.pins[e.Path] > 0,
			})
		}
	}
	sort.Slice(v.Entries, func(i, j int) bool { return v.Entries[i].Path < v.Entries[j].Path })
	if len(c.ownerBytes) > 0 {
		v.OwnerBytes = map[string]int64{}
		for o, b := range c.ownerBytes {
			v.OwnerBytes[o] = b
		}
	}
	for p, n := range c.pins {
		if n > 0 {
			v.Pinned = append(v.Pinned, p)
		}
	}
	sort.Strings(v.Pinned)
	for p := range c.orphans {
		v.Orphans = append(v.Orphans, p)
	}
	sort.Strings(v.Orphans)
	return v
}

// Stats returns a snapshot of cache occupancy and lifecycle counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

// statsLocked is Stats with c.mu held.
func (c *Cache) statsLocked() Stats {
	s := c.stats
	s.Entries = c.count
	s.Bytes = c.bytes
	s.ReuseTracked = len(c.demand)
	return s
}
