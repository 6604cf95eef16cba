// Package serve is the multi-tenant query service: a long-running
// server that accepts many concurrent scripts, fingerprints each
// query tree on arrival, and runs them all through one shared,
// concurrency-safe share.Session — so one client's scripts are served
// from common subexpressions another client's scripts materialized.
//
// This extends the paper's Definition-1 fingerprints from intra-
// script CSE to multi-query optimization across users, in the spirit
// of shared cloud query execution ("Pay One, Get Hundreds for Free")
// and dynamic folding of concurrent analytical queries (GraftDB):
//
//   - A batching-window scheduler collects arriving scripts for a
//     short window and folds the ones whose still-uncovered
//     fingerprint sets overlap into one sequential admission pass, so
//     exactly one of them materializes each shared subexpression and
//     the rest hit the cache instead of racing to rebuild it.
//     Scripts with no uncovered overlap run fully concurrently.
//   - Admission control bounds in-flight work: at most MaxInFlight
//     folded groups execute at once, at most QueueDepth requests wait
//     for dispatch (beyond it submissions fail fast with
//     ErrOverloaded), and each run carries a per-request timeout
//     through the session's context path.
//   - Every run is tenant-tagged: admitted artifacts are charged to
//     the submitting tenant, bounded by a per-tenant cache quota, and
//     per-tenant hit/miss/byte counters are published through
//     internal/obs.
//   - Shutdown drains: queued and in-flight runs finish, new
//     submissions fail with ErrShutdown.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/relop"
	"repro/internal/share"
	"repro/internal/stats"
)

// Errors the admission controller returns without running anything.
var (
	// ErrOverloaded reports backpressure: the dispatch queue is full.
	ErrOverloaded = errors.New("serve: queue full, try again later")
	// ErrShutdown reports a submission after Shutdown began.
	ErrShutdown = errors.New("serve: server is shutting down")
)

// ParseError wraps a script compilation failure — the client's fault,
// distinguished from execution errors for HTTP status mapping.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// Config parameterizes a Server.
type Config struct {
	// Catalog and FS are the shared statistics catalog and file store
	// every tenant's scripts compile and run against (required).
	Catalog *stats.Catalog
	FS      *exec.FileStore
	// Machines is the execution partition count (required positive).
	Machines int
	// Workers bounds each run's execution worker pool (0 = per CPU).
	Workers int
	// CacheBytes bounds the shared result cache (0 = share default).
	CacheBytes int64
	// Window is the batching window: arriving scripts are collected
	// for this long, then folded and dispatched together. Zero
	// dispatches each submission immediately (no cross-request
	// folding; still admission-controlled).
	Window time.Duration
	// MaxInFlight bounds how many folded groups execute concurrently
	// (0 = one per CPU).
	MaxInFlight int
	// QueueDepth bounds how many requests may await dispatch; past it
	// Submit fails fast with ErrOverloaded (0 = DefaultQueueDepth).
	QueueDepth int
	// Timeout is the per-request execution timeout, enforced through
	// the session's context path (0 = none).
	Timeout time.Duration
	// TenantCacheBytes caps each tenant's share of the result cache;
	// admissions past it are discarded and counted (0 = unlimited).
	TenantCacheBytes int64
	// Obs receives the server's metrics (nil = a private registry).
	Obs *obs.Registry
	// EventCap sizes the flight-recorder ring of the query event log
	// (0 = eventlog.DefaultCap). The log itself is always on: every
	// request produces one structured event.
	EventCap int
	// EventSinkPath, when non-empty, keeps the full event history (not
	// just the ring) buffered for a JSONL table at this FileStore path;
	// FlushEvents writes it through the metered store.
	EventSinkPath string
	// Analyze runs every request under EXPLAIN ANALYZE instrumentation
	// and records the plan's worst row-estimate q-error in its event.
	Analyze bool
	// FailureDump, when non-nil, receives a flight-recorder JSONL dump
	// whenever a request fails or a worker panics — the events leading
	// up to the failure, ending with the failing one.
	FailureDump io.Writer
	// Pprof mounts net/http/pprof under /debug/pprof/ on the Handler.
	Pprof bool
	// MemBudget is every run's per-partition working-set bound in
	// bytes (0 = unbounded).
	MemBudget int64
}

// DefaultQueueDepth is the dispatch-queue bound used when none is
// configured.
const DefaultQueueDepth = 256

// maxTenantSeries caps how many distinct tenants get their own
// serve.tenant.<name>.* registry series; later tenants share the
// tenantOverflow series ('~' is outside the names handleRun accepts,
// so no HTTP client can claim it).
const (
	maxTenantSeries = 1024
	tenantOverflow  = "~overflow"
)

// Server is the multi-tenant query service over one shared session.
type Server struct {
	cfg    Config
	sess   *share.Session
	reg    *obs.Registry
	events *eventlog.Log
	// sem bounds concurrently executing folded groups.
	sem chan struct{}
	// dumpMu serializes flight-recorder dumps to cfg.FailureDump so
	// concurrent failures don't interleave JSONL lines.
	dumpMu sync.Mutex

	mu      sync.Mutex
	pending []*request  // guarded by mu
	timer   *time.Timer // guarded by mu
	closed  bool        // guarded by mu
	// tenants are the tenants with their own registry series.
	tenants map[string]bool // guarded by mu
	// wg counts dispatched groups; Add happens under mu (before
	// Shutdown's Wait can start), Wait runs after closed is set.
	wg sync.WaitGroup
}

// request is one submitted script waiting for (or in) execution.
type request struct {
	tenant string
	script string
	// fps is the sorted, deduplicated identity set of the script's
	// non-leaf subexpressions — the scheduler's folding key.
	fps  []subexpr
	ctx  context.Context
	done chan struct{}
	rep  *share.RunReport
	err  error
	// outputs digests rep.Outputs once, for both the event and the
	// HTTP response; set by runOne on success.
	outputs []eventlog.Output
	// Event-log facts recorded along the dispatch path: the covered /
	// uncovered subexpression split observed at fold time and the
	// folding decision. Written before the request's goroutine starts,
	// read by runOne — no lock needed.
	covered   []string
	uncovered []string
	folded    bool
	groupSize int
}

// New validates cfg and returns a started server (no listener; pair
// it with Handler for HTTP).
func New(cfg Config) (*Server, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	sess, err := share.NewSession(share.Config{
		Catalog:    cfg.Catalog,
		FS:         cfg.FS,
		Machines:   cfg.Machines,
		Workers:    cfg.Workers,
		CacheBytes: cfg.CacheBytes,
		Obs:        cfg.Obs,
		MemBudget:  cfg.MemBudget,
		Analyze:    cfg.Analyze,
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	events := eventlog.New(cfg.EventCap)
	if cfg.EventSinkPath != "" {
		events.AttachSink(cfg.FS, cfg.EventSinkPath)
	}
	return &Server{
		cfg:     cfg,
		sess:    sess,
		reg:     cfg.Obs,
		events:  events,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		tenants: map[string]bool{},
	}, nil
}

// Session exposes the underlying shared session (tests, stats).
func (s *Server) Session() *share.Session { return s.sess }

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// EventLog exposes the query event log (flight recorder + sink).
func (s *Server) EventLog() *eventlog.Log { return s.events }

// FlushEvents writes the buffered event history through the metered
// FileStore (no-op without Config.EventSinkPath).
func (s *Server) FlushEvents() { s.events.Flush() }

// Submit runs one script on behalf of tenant and blocks until it
// finishes, is rejected, or times out. Safe for concurrent use; this
// is the line clients hold while the scheduler batches, folds, and
// admission-controls their work.
func (s *Server) Submit(ctx context.Context, tenant, script string) (*share.RunReport, error) {
	req, err := s.submit(ctx, tenant, script)
	if err != nil {
		return nil, err
	}
	return req.rep, req.err
}

// submit is Submit returning the finished request, so the HTTP handler
// can reuse the output digests runOne computed. A non-nil error means
// the request never ran; a run's own failure is req.err.
func (s *Server) submit(ctx context.Context, tenant, script string) (*request, error) {
	m, err := logical.BuildSource(script, s.cfg.Catalog)
	if err != nil {
		s.reg.Counter("serve.parse_errors").Add(1)
		return nil, &ParseError{Err: err}
	}
	req := &request{
		tenant: tenant,
		script: script,
		fps:    fingerprintSet(m),
		ctx:    ctx,
		done:   make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.reg.Counter("serve.rejected").Add(1)
		return nil, ErrOverloaded
	}
	s.pending = append(s.pending, req)
	if s.cfg.Window <= 0 {
		s.flushLocked()
	} else if s.timer == nil {
		s.timer = time.AfterFunc(s.cfg.Window, s.flush)
	}
	s.mu.Unlock()

	<-req.done
	return req, nil
}

// flush dispatches everything collected during the batching window.
func (s *Server) flush() {
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
}

// flushLocked folds the pending batch and dispatches its groups.
// Caller holds s.mu; the WaitGroup Add under the same lock is what
// keeps dispatch ordered before Shutdown's Wait.
func (s *Server) flushLocked() {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	batch := s.pending
	s.pending = nil
	if len(batch) == 0 {
		return
	}
	s.dispatchGroups(batch)
}

// dispatchGroups folds a batch and launches its groups. Caller holds
// s.mu, which keeps every Add ahead of Shutdown's Wait.
func (s *Server) dispatchGroups(batch []*request) {
	groups := foldGroups(batch, s.sess.Cache())
	s.reg.Counter("serve.batches").Add(1)
	s.reg.Counter("serve.groups").Add(int64(len(groups)))
	for _, g := range groups {
		if len(g) > 1 {
			s.reg.Counter("serve.folded").Add(int64(len(g) - 1))
		}
		// Record the folding decision for the event log: the group
		// leader dispatched, everyone behind it folded.
		for i, req := range g {
			req.folded = i > 0
			req.groupSize = len(g)
		}
		s.wg.Add(1)
		go s.runGroup(g)
	}
}

// runGroup executes one folded group under the in-flight bound. The
// group's requests run sequentially — that is the point of folding:
// the first run materializes and admits the shared subexpressions,
// the rest are served from the cache instead of racing to rebuild
// them.
func (s *Server) runGroup(g []*request) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	for _, req := range g {
		s.runOne(req)
	}
}

// runOne executes a single request through the shared session,
// publishes its per-tenant accounting, and records its event. A panic
// in the session or executor is caught here — it becomes the
// request's error and a flight-recorder dump, not a dead server.
func (s *Server) runOne(req *request) {
	defer close(req.done)
	ctx := req.ctx
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				req.rep, req.err = nil, fmt.Errorf("serve: run panicked: %v", r)
				s.reg.Counter("serve.panics").Add(1)
			}
		}()
		req.rep, req.err = s.sess.RunContext(ctx, req.script, share.RunOpts{
			Tenant:           req.tenant,
			TenantCacheBytes: s.cfg.TenantCacheBytes,
		})
	}()
	latency := time.Since(start).Microseconds()
	s.reg.Counter("serve.requests").Add(1)
	s.reg.Histogram("serve.latency_us").Observe(latency)
	series := s.tenantSeries(req.tenant)
	pfx := "serve.tenant." + series + "."
	s.reg.Counter(pfx + "requests").Add(1)
	if req.err != nil {
		s.reg.Counter("serve.errors").Add(1)
		s.reg.Counter(pfx + "errors").Add(1)
		s.recordEvent(req, latency)
		return
	}
	s.reg.Counter(pfx + "cache_hits").Add(int64(req.rep.CacheHits))
	s.reg.Counter(pfx + "cache_misses").Add(int64(req.rep.CacheMisses))
	s.reg.Counter(pfx + "admitted_bytes").Add(req.rep.AdmittedBytes)
	s.reg.Counter(pfx + "quota_rejected").Add(int64(req.rep.QuotaRejected))
	if series == req.tenant {
		s.reg.Gauge(pfx + "cache_bytes").Set(s.sess.Cache().OwnerBytes(req.tenant))
	}
	req.outputs = eventlog.DigestOutputs(req.rep.Outputs)
	s.recordEvent(req, latency)
}

// tenantSeries names the serve.tenant.<series>.* registry series a
// tenant's counters land in: its own name for the first
// maxTenantSeries distinct tenants, tenantOverflow for everyone after,
// so the registry and /metrics stay bounded whatever clients send.
func (s *Server) tenantSeries(tenant string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tenants[tenant] {
		if len(s.tenants) >= maxTenantSeries {
			return tenantOverflow
		}
		s.tenants[tenant] = true
	}
	return tenant
}

// recordEvent submits the request's structured event to the query
// event log and, on failure, dumps the flight recorder so the events
// leading up to the failure (ending with it) are preserved.
func (s *Server) recordEvent(req *request, latencyUs int64) {
	ev := eventlog.Event{
		Tenant:    req.tenant,
		Script:    eventlog.ScriptID(req.script),
		Covered:   req.covered,
		Uncovered: req.uncovered,
		Folded:    req.folded,
		GroupSize: req.groupSize,
		LatencyUs: latencyUs,
	}
	if req.err != nil {
		ev.Error = req.err.Error()
	} else {
		ev.CacheHits = req.rep.CacheHits
		ev.CacheMisses = req.rep.CacheMisses
		ev.Admitted = req.rep.Admitted
		ev.AdmittedBytes = req.rep.AdmittedBytes
		ev.QuotaRejected = req.rep.QuotaRejected
		ev.Evicted = req.rep.Evicted
		ev.Spills = req.rep.Metrics.Spills
		ev.QErrMax = req.rep.MaxQ
		ev.Outputs = req.outputs
	}
	s.events.Submit(ev)
	if req.err != nil && s.cfg.FailureDump != nil {
		s.dumpMu.Lock()
		fmt.Fprintf(s.cfg.FailureDump, "# flight recorder: request for tenant %q failed: %v\n", req.tenant, req.err)
		s.events.DumpRecent(s.cfg.FailureDump, 0)
		s.dumpMu.Unlock()
	}
}

// Shutdown stops accepting submissions, dispatches whatever the
// batching window still holds, and waits for every in-flight run to
// drain (or ctx to expire, whichever is first).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.flushLocked()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown drain: %w", ctx.Err())
	}
}

// subexpr identifies one shareable subexpression: its Definition-1
// fingerprint plus the canonical signature that disambiguates the
// fingerprint's kind-XOR collisions. Folding on the pair means two
// scripts unite only when they contain the *same* expression, not
// merely expressions built from the same operator kinds.
type subexpr struct {
	fp  uint64
	sig string
}

// fingerprintSet collects the sorted, deduplicated subexpression
// identities of a script's non-leaf memo groups. Leaf extracts are
// excluded: a bare scan is never admitted as a cache artifact, so two
// scripts that merely read the same file have nothing to fold over.
func fingerprintSet(m *memo.Memo) []subexpr {
	fps := core.Fingerprints(m)
	sigs := core.CanonicalSignatures(m)
	var out []subexpr
	for _, g := range m.Groups() {
		if len(g.Exprs) == 0 {
			continue
		}
		if _, leaf := g.Exprs[0].Op.(*relop.Extract); leaf {
			continue
		}
		out = append(out, subexpr{fp: fps[g.ID], sig: sigs[g.ID]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].sig != out[j].sig {
			return out[i].sig < out[j].sig
		}
		return out[i].fp < out[j].fp
	})
	// Dedup in place.
	n := 0
	for i, se := range out {
		if i == 0 || se != out[n-1] {
			out[n] = se
			n++
		}
	}
	return out[:n]
}

// foldGroups partitions a batch into folded groups: requests whose
// *uncovered* subexpression sets overlap (shared expressions no valid
// cache entry serves yet) are united and will run sequentially;
// requests with nothing uncovered in common run concurrently.
// Covered subexpressions don't fold — a cache hit is already free to
// share concurrently. Group order and intra-group order follow
// arrival order, so folding is deterministic for a given batch.
func foldGroups(batch []*request, cache *share.Cache) [][]*request {
	uncovered := make([][]subexpr, len(batch))
	for i, req := range batch {
		for _, se := range req.fps {
			if cache.HoldsSig(se.fp, se.sig) {
				req.covered = append(req.covered, eventlog.SubexprID(se.fp, se.sig))
			} else {
				uncovered[i] = append(uncovered[i], se)
				req.uncovered = append(req.uncovered, eventlog.SubexprID(se.fp, se.sig))
			}
		}
	}
	// Union-find over batch indexes.
	parent := make([]int, len(batch))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			if find(i) != find(j) && overlaps(uncovered[i], uncovered[j]) {
				parent[find(j)] = find(i)
			}
		}
	}
	// Gather components in arrival order.
	index := map[int]int{}
	var groups [][]*request
	for i, req := range batch {
		root := find(i)
		gi, ok := index[root]
		if !ok {
			gi = len(groups)
			index[root] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], req)
	}
	return groups
}

// overlaps reports whether two sorted subexpression sets intersect.
func overlaps(a, b []subexpr) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i].sig < b[j].sig || (a[i].sig == b[j].sig && a[i].fp < b[j].fp):
			i++
		default:
			j++
		}
	}
	return false
}
