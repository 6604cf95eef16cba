package share

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/stats"
)

// Config parameterizes a session. It is also the execute stage's
// cluster description (see Execute).
type Config struct {
	// Catalog and FS are the statistics catalog and file store the
	// session's scripts compile and run against. Both are required.
	Catalog *stats.Catalog
	FS      *exec.FileStore
	// Machines is the execution partition count (required positive).
	Machines int
	// Workers bounds the execution worker pool (0 = one per CPU).
	Workers int
	// CacheBytes bounds the result cache (0 = DefaultCacheBytes).
	CacheBytes int64
	// Opt overrides the optimizer configuration (nil = defaults with
	// CSE on). The session always installs its own cache.
	Opt *opt.Options
	// Tracer, when non-nil, receives optimizer and executor spans for
	// every Run. The span tree is deterministic at any Workers width.
	Tracer *obs.Tracer
	// Obs, when non-nil, receives every run's metrics — failed runs
	// included, as far as they got: the optimizer's stats, the
	// execution totals, and the run's sharing counters — and the cache's
	// lifecycle as it happens. Safe to share across concurrent sessions.
	Obs *obs.Registry
	// MemBudget is every run's per-partition working-set bound in
	// bytes (0 = unbounded). See exec.Cluster.
	MemBudget int64
	// Analyze runs every plan under EXPLAIN ANALYZE instrumentation
	// and reports the worst row-estimate q-error in RunReport.MaxQ —
	// the estimate-quality signal the service's event log records per
	// request.
	Analyze bool
}

// Session runs scripts against one cluster, sharing materialized
// common subexpressions across them through a Cache. Compile and the
// Run methods are safe for concurrent use: concurrent runs execute in
// parallel against the shared cache, artifact paths are allocated
// under the session mutex, and each run commits its artifacts and
// publishes its record in one critical section under that mutex.
type Session struct {
	cfg   Config
	cache *Cache
	opts  opt.Options

	mu  sync.Mutex
	seq int // guarded by mu
}

// NewSession validates cfg and returns a session with an empty cache.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Catalog == nil || cfg.FS == nil {
		return nil, errors.New("share: session needs a catalog and a file store")
	}
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("share: session needs at least 1 machine, got %d", cfg.Machines)
	}
	opts := opt.DefaultOptions()
	if cfg.Opt != nil {
		opts = *cfg.Opt
	}
	cache := NewCache(cfg.FS, cfg.Catalog, cfg.CacheBytes)
	cache.obs = cfg.Obs
	return &Session{
		cfg:   cfg,
		cache: cache,
		opts:  opts,
	}, nil
}

// MQOOwner is the cache owner tag for artifacts pre-admitted by the
// workload-level multi-query optimizer. They are workload decisions,
// not any single tenant's, so they bypass per-tenant quotas.
const MQOOwner = "mqo"

// Cache exposes the session's result cache (e.g. for lint probes).
func (s *Session) Cache() *Cache { return s.cache }

// Options returns the optimizer configuration the session runs under
// — what a workload-level planner must cost against for its estimates
// to match enactment.
func (s *Session) Options() opt.Options { return s.opts }

// CacheStats returns a snapshot of the session cache.
func (s *Session) CacheStats() Stats { return s.cache.Stats() }

// artifactDir prefixes every artifact path the session allocates.
const artifactDir = "__cache/"

// Quiescent reports the first at-rest invariant the session violates
// (nil when none): with no run in flight the cache has no pin and no
// orphan, every file under __cache/ is owned by a cache entry, and the
// per-owner bytes sum to the cache's total — however the earlier runs
// ended. Tests and scoped -selftest call it.
func (s *Session) Quiescent() error {
	v := s.cache.Describe()
	if len(v.Pinned) > 0 || len(v.Orphans) > 0 {
		return fmt.Errorf("share: no run in flight, yet pinned=%v orphans=%v", v.Pinned, v.Orphans)
	}
	owned := make(map[string]bool, len(v.Entries))
	for _, e := range v.Entries {
		owned[e.Path] = true
	}
	for _, p := range s.cfg.FS.Paths() {
		if strings.HasPrefix(p, artifactDir) && !owned[p] {
			return fmt.Errorf("share: artifact %s has no cache entry to evict it", p)
		}
	}
	var sum int64
	for _, b := range v.OwnerBytes {
		sum += b
	}
	if sum != v.Stats.Bytes {
		return fmt.Errorf("share: owner bytes sum to %d, cache holds %d", sum, v.Stats.Bytes)
	}
	return nil
}

// Compile is the compile stage against the session's catalog, with
// Algorithm 1 run exactly when the session's options enable CSE.
func (s *Session) Compile(src string) (*Compiled, error) {
	return Compile(src, s.cfg.Catalog, s.opts.EnableCSE)
}

// RunReport is the record of one run: what the session did for one
// script, filled as far as the run got. Events, HTTP responses and
// registry deltas are projections of it.
type RunReport struct {
	// Tenant is the tag the run was submitted under ("" untagged) and
	// Script the event-log identity of its source.
	Tenant string
	Script string
	// Err is the run's failure (nil on success) — the error RunCompiled
	// returned beside the report.
	Err error
	// Outputs holds every OUTPUT file the script produced, by path, and
	// Digests their content digests in path order (both nil for a
	// failed run).
	Outputs map[string]*exec.Table
	Digests []eventlog.OutputDigest
	// Plan is the chosen plan and Cost the optimizer's DAG-aware
	// estimate for it; Opt and OptDuration are the search effort and wall
	// time it took. PlanCached reports that Plan came from the session's
	// plan store, in which case Opt is the effort of the search that
	// stored it.
	Plan        *plan.Node
	Cost        float64
	Opt         opt.Stats
	OptDuration time.Duration
	PlanCached  bool
	// Metrics is the metered work of this script's execution alone.
	Metrics exec.Metrics
	// Sharing holds the run's cache counters.
	eventlog.Sharing
	// MaxQ is the worst row-estimate q-error across the executed plan
	// (0 unless Config.Analyze is set).
	MaxQ float64
	// Lint holds the optimizer's plan-analyzer findings when the
	// session options enable linting (nil otherwise). MQO enactment
	// surfaces P7 findings — an enacted plan rebuilding a
	// workload-covered subexpression — through it.
	Lint []lint.Diagnostic
}

// RunOpts carries the per-run multi-tenancy parameters.
type RunOpts struct {
	// Tenant tags the run for cache accounting and quotas; admitted
	// artifacts are charged to it ("" = untagged).
	Tenant string
	// TenantCacheBytes caps the total cached payload charged to
	// Tenant; an admission that would exceed it is discarded and
	// counted in RunReport.QuotaRejected (0 = unlimited).
	TenantCacheBytes int64
	// WorkloadCovered, when non-nil, tells the P7 lint analyzer which
	// fingerprints the workload's chosen materialization set covers
	// for this run (excluding the ones this run is designated to
	// build). Only consulted when the session options enable linting.
	WorkloadCovered func(fp uint64) bool
	// ForceMaterialize is the workload-level materialization set a
	// multi-query optimizer chose for the batch this run belongs to.
	// The run force-materializes any listed subexpression the cache
	// does not hold yet (so the batch's designated builder produces the
	// artifact even when it consumes the subexpression only once), and
	// a spool matching one bypasses the cost-based admission formula
	// and is persisted under MQOOwner. It binds this run only.
	ForceMaterialize []Subexpr
}

// pending is one artifact selected for persistence, committed into
// the cache after the run materializes it, with what the optimizer's
// record lacks: the artifact's path, its sources — snapshotted before
// the run executes, so a write racing the run leaves the artifact stale
// rather than stamped with the new version — and the tenant charged for
// it (MQOOwner for workload-level materializations).
type pending struct {
	opt.Artifact
	path    string
	sources []Source
	owner   string
}

// pinner is the per-run view of the session cache the optimizer sees:
// every hit is pinned under the cache lock, so the artifact file is
// guaranteed to still exist when the executor's CacheScan reads it,
// even if a concurrent run evicts or replaces the entry in between.
type pinner struct {
	c *Cache

	mu    sync.Mutex
	paths []string         // guarded by mu
	seen  map[Subexpr]bool // guarded by mu
	// sources are each pinned artifact's recorded sources, captured
	// with the pin: an artifact this run derives from a hit inherits
	// them even if the hit's entry is dropped before the run settles.
	sources map[string][]Source // guarded by mu
}

func newPinner(c *Cache) *pinner {
	return &pinner{c: c, seen: map[Subexpr]bool{}, sources: map[string][]Source{}}
}

// SavedSearch implements opt.PlanStore over the session's plan store.
// A served search re-asks its lookups through Lookup, so the run pins
// exactly the artifacts the search would have pinned.
func (p *pinner) SavedSearch(key opt.PlanKey) (*opt.SavedSearch, bool) {
	return p.c.SavedSearch(key)
}

func (p *pinner) Lookup(id Subexpr, sig string, schema relop.Schema) (opt.CacheEntry, bool) {
	ce, sources, ok := p.c.lookup(id, sig, schema, true)
	if !ok {
		return ce, false
	}
	p.mu.Lock()
	p.paths = append(p.paths, ce.Path)
	p.sources[ce.Path] = sources
	// One use per distinct subexpression per run: the optimizer may
	// probe the same entry from several alternatives, but the reuse
	// history should count scripts, not search-space visits.
	first := !p.seen[id]
	p.seen[id] = true
	p.mu.Unlock()
	if first {
		p.c.NoteUse(id, sig, schema)
	}
	return ce, true
}

// found reports whether this run's search found id cached.
func (p *pinner) found(id Subexpr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[id]
}

// sourcesOf returns the recorded sources of the artifact pinned at
// path (nil when this run pinned none there).
func (p *pinner) sourcesOf(path string) []Source {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sources[path]
}

// release drops every pin the run took, removing orphaned artifacts.
func (p *pinner) release() {
	p.mu.Lock()
	paths := p.paths
	p.paths = nil
	p.mu.Unlock()
	for _, path := range paths {
		p.c.Unpin(path)
	}
}

// Run compiles, optimizes, and executes one script. The optimizer
// sees the session cache and may replace equivalent subexpressions
// with CacheScans; on the way out, phase-2 spool materializations
// passing the admission test are persisted for later scripts.
func (s *Session) Run(src string) (*RunReport, error) {
	return s.RunContext(context.Background(), src, RunOpts{})
}

// RunContext is Compile followed by RunCompiled. A script that does
// not compile returns no report.
func (s *Session) RunContext(ctx context.Context, src string, opts RunOpts) (*RunReport, error) {
	c, err := s.Compile(src)
	if err != nil {
		return nil, err
	}
	return s.RunCompiled(ctx, c, opts)
}

// RunCompiled optimizes and executes one compiled script, consuming
// it: a Compiled already optimized fails the run. The run
// stops (and returns the cancellation cause) when ctx is canceled, and
// admitted artifacts are charged against opts.Tenant's quota. Safe for
// concurrent use with other runs on the same session.
//
// The report is never nil: a failed run returns it beside the error,
// filled as far as the run got. Every run — success, error,
// cancellation, panic — leaves through the one deferred exit below,
// after which it holds no pin, every artifact it persisted is owned by
// a cache entry or removed, and its record is published exactly once.
func (s *Session) RunCompiled(ctx context.Context, c *Compiled, opts RunOpts) (rep *RunReport, err error) {
	rep = &RunReport{Tenant: opts.Tenant, Script: c.Script}
	pins := newPinner(s.cache)
	var (
		res  *opt.Result
		x    *Execution
		pend []pending
	)
	defer func() {
		rep.Err = err
		if x != nil {
			rep.Metrics = x.Metrics
		}
		// The commit and the publish share one critical section so
		// concurrent runs' registry deltas never overlap.
		s.mu.Lock()
		s.settle(pend, rep, opts)
		if res != nil {
			res.Publish(s.cfg.Obs)
		}
		if x != nil {
			rep.Metrics.Publish(s.cfg.Obs)
		}
		rep.Sharing.Record(s.cfg.Obs, "share.")
		s.mu.Unlock()
		pins.release()
	}()

	if err = ctx.Err(); err != nil {
		return rep, err
	}
	o := s.opts
	o.Cache = pins
	// Force only the subexpressions the cache does not already serve.
	o.ForceMaterialize = make(map[Subexpr]bool, len(opts.ForceMaterialize))
	for _, id := range opts.ForceMaterialize {
		if !s.cache.Contains(id, nil) {
			o.ForceMaterialize[id] = true
		}
	}
	o.WorkloadCovered = opts.WorkloadCovered
	if s.cfg.Tracer != nil {
		o.Tracer = s.cfg.Tracer
	}
	if res, err = Optimize(c, o); err != nil {
		return rep, err
	}
	rep.Plan, rep.Cost, rep.Lint = res.Plan, res.Cost, res.Lint
	rep.Opt, rep.OptDuration, rep.PlanCached = res.Stats, res.Duration, res.Cached
	rep.CacheHits = len(plan.FindAll(res.Plan, relop.KindCacheScan))

	var persist map[plan.SpoolID]string
	persist, pend, rep.CacheMisses = s.admit(res, pins, opts.Tenant, opts.ForceMaterialize)

	spec := s.cfg
	spec.Obs = nil // the exit publishes, under s.mu
	if x, err = Execute(ctx, res.Plan, spec, persist); err != nil {
		return rep, err
	}
	if x.Analysis != nil {
		rep.MaxQ = x.Analysis.Summary().MaxQ
	}
	rep.Outputs = x.Outputs
	rep.Digests = eventlog.Digests(x.Outputs)
	// Only a search whose plan ran to completion is stored.
	s.cache.keepSearch(res.Saved())
	return rep, nil
}

// settle commits or removes every artifact path the run was given: a
// run that produced its outputs commits each materialized artifact
// into the cache (or discards it over quota); a failed run removes
// them, because no cache entry would ever own — and so evict — the
// file. A path with no file never materialized (broadcast spools and
// never-executed branches leave nothing). Caller holds s.mu, which is
// what makes rep.Evicted this run's alone.
func (s *Session) settle(pend []pending, rep *RunReport, opts RunOpts) {
	evictionsBefore := s.cache.Stats().Evictions
	for _, p := range pend {
		t, ok := s.cfg.FS.Get(p.path)
		if !ok {
			continue
		}
		if rep.Outputs == nil {
			s.cfg.FS.Remove(p.path)
			continue
		}
		// Workload-level (MQO) artifacts are batch decisions, not any
		// single tenant's, so they bypass the submitting tenant's quota.
		if p.owner == opts.Tenant && opts.TenantCacheBytes > 0 &&
			s.cache.OwnerBytes(opts.Tenant)+t.Bytes() > opts.TenantCacheBytes {
			// Over quota: discard the materialized artifact instead of
			// charging the tenant past its bound.
			s.cfg.FS.Remove(p.path)
			rep.QuotaRejected++
			continue
		}
		s.cache.Put(p.Artifact, p.path, t.Bytes(), p.sources, p.owner)
		rep.Admitted++
		rep.AdmittedBytes += t.Bytes()
	}
	rep.Evicted = int(s.cache.Stats().Evictions - evictionsBefore)
}

// Admit is the admission rule: keeping artifact a pays when
//
//	(build − read) × max(observed, 1) > read
//
// where build is the tree cost of computing and materializing the
// subexpression once, read is the modeled cost of a future consumer
// scanning the artifact under its recorded layout, and the right-hand
// read prices the artifact's write like one such scan. observed is the
// subexpression's demand history before this run (lookup hits plus
// misses of earlier runs); a subexpression with none counts one reuse.
// Sessions admit with it, and mqo's per-script baseline simulates them
// with it.
func Admit(a opt.Artifact, observed int64) bool {
	return (a.Build-a.Read)*float64(max(observed, 1)) > a.Read
}

// admit decides, for every artifact of the chosen plan, whether the run
// persists it, and returns the PersistSpools map for the cluster, the
// pending cache commits and the run's miss count.
//
// A miss is an artifact whose identity this run's search did not find
// cached: the run builds it. Each one counts once per distinct spool
// and is noted as demand, even when another run committed the identity
// after this run's search. Only identities the cache does not hold at
// admission are persisted: those in workload (the run's
// RunOpts.ForceMaterialize set) bypass Admit — the workload-level
// selection already paid for the persist, and the artifact is owned by
// MQOOwner rather than the submitting tenant — and the rest must pass
// Admit.
func (s *Session) admit(res *opt.Result, pins *pinner, tenant string, workload []Subexpr) (map[plan.SpoolID]string, []pending, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	persist := map[plan.SpoolID]string{}
	var pend []pending
	misses := 0
	for _, a := range res.Artifacts {
		// Read the history before recording this run's demand, so the
		// estimate counts prior runs only.
		observed := s.cache.ObservedReuse(a.ID)
		if !pins.found(a.ID) {
			misses++
			s.cache.NoteDemand(a.ID)
		}
		if s.cache.Contains(a.ID, a.Input().Schema) {
			continue
		}
		owner := tenant
		if slices.Contains(workload, a.ID) {
			owner = MQOOwner
		} else if !Admit(a, observed) {
			continue
		}
		s.seq++
		path := fmt.Sprintf("%s%016x-%d", artifactDir, a.Input().FP, s.seq)
		persist[a.Spool.SpoolID()] = path
		pend = append(pend, pending{Artifact: a, path: path, sources: s.collectSources(a.Spool, pins), owner: owner})
	}
	return persist, pend, misses
}

// collectSources gathers the input files the spool's subtree depends
// on, before the run executes: every Extract path with its current
// FileStore version and catalog epoch, plus — for subtrees that read
// cached artifacts — the sources those artifacts recorded, as pinned
// at lookup. A path reached both ways keeps its oldest state, so any
// later mutation, or one already made since a pinned artifact was
// built, invalidates the entry.
func (s *Session) collectSources(spool *plan.Node, pins *pinner) []Source {
	byPath := map[string]Source{}
	add := func(src Source) {
		if old, ok := byPath[src.Path]; ok {
			src.Version = min(src.Version, old.Version)
			src.Epoch = min(src.Epoch, old.Epoch)
		}
		byPath[src.Path] = src
	}
	seen := map[*plan.Node]bool{}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		switch op := n.Op.(type) {
		case *relop.PhysExtract:
			add(Source{Path: op.Path, Version: s.cfg.FS.Version(op.Path), Epoch: s.cfg.Catalog.Epoch(op.Path)})
		case *relop.PhysCacheScan:
			for _, src := range pins.sourcesOf(op.Path) {
				add(src)
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(spool)
	out := make([]Source, 0, len(byPath))
	for _, src := range byPath {
		out = append(out, src)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
