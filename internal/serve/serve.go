// Package serve is the multi-tenant query service: a long-running
// server that accepts many concurrent scripts, compiles each once on
// arrival, and runs them all through one shared, concurrency-safe
// share.Session — so one client's scripts are served from common
// subexpressions another client's scripts materialized. The package
// schedules; how a script compiles, runs and is accounted for is the
// session's business (share.Compiled in, share.RunReport out).
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
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
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
	// compiled is the script as the session compiled it at submission;
	// its Subexprs are the scheduler's folding key.
	compiled *share.Compiled
	// submitted is when the request entered Submit, the start of the
	// event's queue_us clock.
	submitted time.Time
	ctx       context.Context
	done      chan struct{}
	// rep is the run's record, set by runOne (never nil once done is
	// closed; rep.Err is the run's failure).
	rep *share.RunReport
	// Event-log facts recorded along the dispatch path: which of
	// compiled.Subexprs were covered at fold time and the folding
	// decision. Written before the request's goroutine starts, read by
	// runOne — no lock needed.
	covered   eventlog.Mask
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
// admission-controls their work. A request that never ran (parse
// error, backpressure, shutdown) returns no report; one that ran and
// failed returns its report beside the error.
func (s *Server) Submit(ctx context.Context, tenant, script string) (*share.RunReport, error) {
	submitted := time.Now()
	c, err := s.sess.Compile(script)
	if err != nil {
		s.reg.Counter("serve.parse_errors").Add(1)
		return nil, &ParseError{Err: err}
	}
	req := &request{
		tenant:    tenant,
		compiled:  c,
		submitted: submitted,
		ctx:       ctx,
		done:      make(chan struct{}),
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
	return req.rep, req.rep.Err
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
// publishes its per-tenant accounting, and records its event — all
// three from the run's record. A panic in the session or executor is
// caught here — it becomes the request's error and a flight-recorder
// dump, not a dead server (the session's own exit has already released
// the run's pins and artifacts by the time the panic arrives).
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
				req.rep = &share.RunReport{
					Tenant: req.tenant,
					Script: req.compiled.Script,
					Err:    fmt.Errorf("serve: run panicked: %v", r),
				}
				s.reg.Counter("serve.panics").Add(1)
			}
		}()
		req.rep, _ = s.sess.RunCompiled(ctx, req.compiled, share.RunOpts{
			Tenant:           req.tenant,
			TenantCacheBytes: s.cfg.TenantCacheBytes,
		})
	}()
	rep := req.rep
	queued, latency := start.Sub(req.submitted).Microseconds(), time.Since(start).Microseconds()
	s.reg.Counter("serve.requests").Add(1)
	s.reg.Histogram("serve.queue_us").Observe(queued)
	s.reg.Histogram("serve.latency_us").Observe(latency)
	series := s.tenantSeries(req.tenant)
	pfx := "serve.tenant." + series + "."
	s.reg.Counter(pfx + "requests").Add(1)
	rep.Sharing.Record(s.reg, pfx)
	if series == req.tenant {
		s.reg.Gauge(pfx + "cache_bytes").Set(s.sess.Cache().OwnerBytes(req.tenant))
	}
	ev := eventlog.Compact{
		Event: eventlog.Event{
			Tenant:     rep.Tenant,
			Script:     rep.Script,
			Folded:     req.folded,
			GroupSize:  req.groupSize,
			Sharing:    rep.Sharing,
			Spills:     rep.Metrics.Spills,
			QErrMax:    rep.MaxQ,
			PlanCached: rep.PlanCached,
			QueueUs:    queued,
			LatencyUs:  latency,
		},
		IDs:     req.compiled.Subexprs,
		Covered: req.covered,
		Digests: rep.Digests,
	}
	if rep.Err != nil {
		ev.Error = rep.Err.Error()
		s.reg.Counter("serve.errors").Add(1)
		s.reg.Counter(pfx + "errors").Add(1)
	}
	s.events.SubmitCompact(ev)
	// A failure dumps the flight recorder, so the events leading up to
	// it (ending with it) are preserved.
	if rep.Err != nil && s.cfg.FailureDump != nil {
		s.dumpMu.Lock()
		fmt.Fprintf(s.cfg.FailureDump, "# flight recorder: request for tenant %q failed: %v\n", req.tenant, rep.Err)
		s.events.DumpRecent(s.cfg.FailureDump, 0)
		s.dumpMu.Unlock()
	}
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

// foldGroups partitions a batch into folded groups: requests whose
// *uncovered* subexpression sets overlap (shared expressions no valid
// cache entry serves yet) are united and will run sequentially;
// requests with nothing uncovered in common run concurrently.
// Covered subexpressions don't fold — a cache hit is already free to
// share concurrently. Group order and intra-group order follow
// arrival order, so folding is deterministic for a given batch.
func foldGroups(batch []*request, cache *share.Cache) [][]*request {
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
	// first is the earliest request that found each subexpression
	// uncovered; a later request that does too joins its group.
	first := map[share.Subexpr]int{}
	for i, req := range batch {
		for k, se := range req.compiled.Subexprs {
			if cache.Contains(se, nil) {
				req.covered.Set(k)
				continue
			}
			if j, seen := first[se]; seen {
				parent[find(i)] = find(j)
			} else {
				first[se] = i
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
