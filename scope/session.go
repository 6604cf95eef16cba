package scope

import "repro/internal/share"

// Session runs a sequence of scripts against this DB's tables on one
// simulated cluster, sharing materialized common subexpressions
// across the scripts: each run may serve equivalent subexpressions
// from a fingerprint-keyed result cache populated by earlier runs,
// and materializations worth keeping (cost-based admission) are
// persisted for later runs. Loading a table or re-registering its
// statistics invalidates dependent cache entries.
type Session struct {
	db *DB
	s  *share.Session
}

// SessionOption configures NewSession.
type SessionOption func(*share.Config)

// WithCacheBytes bounds the session result cache's artifact payload
// (default 1 GiB); least-recently-used entries are evicted past it.
func WithCacheBytes(n int64) SessionOption {
	return func(c *share.Config) { c.CacheBytes = n }
}

// WithSessionWorkers bounds the execution worker pool per run
// (default: one worker per CPU). Results are identical at any width.
func WithSessionWorkers(n int) SessionOption {
	return func(c *share.Config) { c.Workers = n }
}

// NewSession starts a session executing on machines partitions.
func (db *DB) NewSession(machines int, options ...SessionOption) (*Session, error) {
	cfg := share.Config{Catalog: db.cat, FS: db.fs, Machines: machines}
	for _, o := range options {
		o(&cfg)
	}
	s, err := share.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{db: db, s: s}, nil
}

// SessionRun reports one script execution inside a session.
type SessionRun struct {
	// Outputs holds every OUTPUT file the script produced, by path.
	Outputs map[string]*Result
	// Stats meters the execution (cache traffic excluded from disk
	// bytes — see CacheBytesRead).
	Stats ExecStats
	// EstimatedCost is the optimizer's DAG-aware estimate.
	EstimatedCost float64
	// CacheHits counts subexpressions served from the session cache;
	// CacheMisses counts shared subexpressions materialized this run
	// that the cache did not hold.
	CacheHits   int
	CacheMisses int
	// Admitted and AdmittedBytes describe artifacts persisted into
	// the cache by this run.
	Admitted      int
	AdmittedBytes int64
	// CacheBytesRead and CacheBytesWritten meter cache traffic,
	// separate from Stats.DiskBytesRead/Written so cold-vs-warm
	// comparisons isolate what sharing saved.
	CacheBytesRead    int64
	CacheBytesWritten int64
}

// Run compiles, optimizes, and executes one script inside the
// session. The optimizer sees the session cache; results are
// identical to a cache-disabled run at any worker count.
func (s *Session) Run(src string) (*SessionRun, error) {
	rep, err := s.s.Run(src)
	if err != nil {
		return nil, err
	}
	out := &SessionRun{
		Outputs:           make(map[string]*Result, len(rep.Outputs)),
		EstimatedCost:     rep.Cost,
		CacheHits:         rep.CacheHits,
		CacheMisses:       rep.CacheMisses,
		Admitted:          rep.Admitted,
		AdmittedBytes:     rep.AdmittedBytes,
		CacheBytesRead:    rep.Metrics.CacheBytesRead,
		CacheBytesWritten: rep.Metrics.CacheBytesWritten,
	}
	for path, t := range rep.Outputs {
		out.Outputs[path] = tableResult(t)
	}
	out.Stats = execStats(rep.Metrics)
	return out, nil
}

// CacheStats summarizes the session's result cache.
type CacheStats struct {
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
	// Insertions, Evictions, and Invalidations count entry lifecycle
	// events over the session's lifetime.
	Insertions    int64
	Evictions     int64
	Invalidations int64
}

// CacheStats returns a snapshot of the session cache.
func (s *Session) CacheStats() CacheStats {
	st := s.s.CacheStats()
	return CacheStats{
		Entries:       st.Entries,
		Bytes:         st.Bytes,
		Insertions:    st.Insertions,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
	}
}
