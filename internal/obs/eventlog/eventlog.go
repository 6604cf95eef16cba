// Package eventlog is the service-grade query event log: one
// structured JSON event per request, capturing what the sharing
// machinery actually did — which subexpressions were covered by the
// cache, which the batching window folded, what the workload
// optimizer chose, what was admitted, evicted, or spilled — so the
// sharing policy can be audited from its own telemetry, the way the
// paper's production-log study audits SCOPE's.
//
// The log is two views over one Submit stream:
//
//   - A bounded in-memory ring (the flight recorder): always on,
//     race-safe, capacity-bounded, dumpable as JSONL when a request
//     fails so the events leading up to the failure are preserved. It
//     keeps subexpression ids and output digests as values and renders
//     their strings only when an event leaves the log.
//   - An optional JSONL sink written through the metered
//     exec.FileStore (never package os — the scopevet rawio analyzer
//     enforces it), holding the full event history for offline
//     replay (`scopestat -replay`).
//
// Events are deterministic modulo timing: IDs derive from tenant and
// script identity plus a per-identity occurrence counter — like the
// span IDs of the parent obs package, never from goroutine
// scheduling — and CanonicalJSONL zeroes the three wall-clock fields
// (time_us, queue_us, latency_us), so the width-determinism regression can
// byte-compare event streams produced at different worker-pool
// widths. The clock is read in exactly one place (nowMicros), the
// only eventlog entry on the scopevet nondet allowlist.
package eventlog

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/relop"
)

// DefaultCap is the flight-recorder ring capacity used when none is
// configured.
const DefaultCap = 256

// Output identifies one OUTPUT table a request produced: path, row
// count, and the FNV-64a digest of its canonical row rendering
// (rendered as fixed-width hex so the JSON stays integer-precision
// safe for any consumer).
type Output struct {
	Path   string `json:"path"`
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
}

// OutputDigest is Output with the digest as the integer DigestTable
// returns — the form the run record and the HTTP response carry.
type OutputDigest struct {
	Path   string `json:"path"`
	Rows   int    `json:"rows"`
	Digest uint64 `json:"digest"`
}

// Sharing is one run's sharing counters under their wire names — their
// only declaration. share.RunReport (the run record), Event and
// serve.RunResponse embed it (encoding/json flattens an embedded
// struct's fields in place), and Record and Add are the only code that
// walks the fields: a new counter is added here and nowhere else.
type Sharing struct {
	// CacheHits counts distinct CacheScan operators in the executed
	// plan — subexpressions served from earlier scripts' results, each
	// of which pinned its artifact for the run.
	CacheHits int `json:"cache_hits"`
	// CacheMisses counts distinct shared subexpressions the run
	// materialized because its search did not find them cached —
	// whether or not the admission rule then kept them, and even when
	// another run committed one before this run's admission. Two spool
	// references to one subexpression are one miss, not two.
	CacheMisses int `json:"cache_misses"`
	// Admitted and AdmittedBytes describe the artifacts the run
	// persisted into the cache.
	Admitted      int   `json:"admitted"`
	AdmittedBytes int64 `json:"admitted_bytes"`
	// QuotaRejected counts artifacts that passed the admission test
	// but were discarded because the tenant's cache quota was full.
	QuotaRejected int `json:"quota_rejected"`
	// Evicted counts cache entries the run's admissions pushed out.
	// Evictions happen only inside the session's commit section, so
	// summing Evicted over a session's runs reproduces the cache's own
	// eviction counter.
	Evicted int `json:"evicted"`
}

// Record adds the counters to r under prefix ("share." for a session,
// "serve.tenant.<t>." for a tenant series). Nil-safe.
func (c Sharing) Record(r *obs.Registry, prefix string) {
	r.Counter(prefix + "cache_hits").Add(int64(c.CacheHits))
	r.Counter(prefix + "cache_misses").Add(int64(c.CacheMisses))
	r.Counter(prefix + "admitted").Add(int64(c.Admitted))
	r.Counter(prefix + "admitted_bytes").Add(c.AdmittedBytes)
	r.Counter(prefix + "quota_rejected").Add(int64(c.QuotaRejected))
	r.Counter(prefix + "evicted").Add(int64(c.Evicted))
}

// Add folds o into c.
func (c *Sharing) Add(o Sharing) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.Admitted += o.Admitted
	c.AdmittedBytes += o.AdmittedBytes
	c.QuotaRejected += o.QuotaRejected
	c.Evicted += o.Evicted
}

// Event is one request's structured record. Field order is the JSONL
// column order (encoding/json preserves struct order), so streams are
// byte-comparable once the timing fields are zeroed.
type Event struct {
	// Seq is the log-assigned submission index (1-based).
	Seq int64 `json:"seq"`
	// ID is the deterministic event identity: fnv64a over
	// tenant+script digest, plus the per-identity occurrence count —
	// the same derivation discipline as span IDs (content, never
	// scheduling).
	ID string `json:"id"`
	// TimeUs is the wall-clock submission time in microseconds since
	// the Unix epoch — the event's only nondeterministic field besides
	// LatencyUs; CanonicalJSONL zeroes both.
	TimeUs int64 `json:"time_us"`
	// Tenant and Script identify who ran what; Script is the FNV-64a
	// digest of the script source.
	Tenant string `json:"tenant"`
	Script string `json:"script"`
	// Covered and Uncovered are the script's shareable subexpression
	// identities (fingerprint.signature-hash, 16 hex digits each) split
	// by whether a valid cache artifact already served them when the
	// batching window dispatched the request.
	Covered   []string `json:"covered,omitempty"`
	Uncovered []string `json:"uncovered,omitempty"`
	// Folded reports the batching-window decision: true when this
	// request ran sequentially behind an overlapping group leader
	// instead of dispatching concurrently. GroupSize is the folded
	// group's total size (1 = dispatched alone).
	Folded    bool `json:"folded"`
	GroupSize int  `json:"group_size"`
	// Sharing is the run's cache actions, as far as it got: a failed
	// request reports the hits it planned and the misses it counted.
	Sharing
	// Spills counts operator working sets that exceeded the memory
	// budget during this request's execution.
	Spills int `json:"spills"`
	// QErrMax is the worst row-estimate q-error across the executed
	// plan (0 when the service runs without EXPLAIN ANALYZE).
	QErrMax float64 `json:"qerr_max,omitempty"`
	// PlanCached reports that the plan came from the session's plan
	// store instead of a search.
	PlanCached bool `json:"plan_cached,omitempty"`
	// QueueUs is the wall time from submission to the start of the
	// request's session run (compilation, batching window, fold queue,
	// in-flight semaphore) and LatencyUs the run's own wall time from
	// there: together, submit-to-response. Timing, so both are zeroed
	// alongside TimeUs in canonical streams.
	QueueUs   int64 `json:"queue_us"`
	LatencyUs int64 `json:"latency_us"`
	// Error is the failure message for requests that did not produce
	// outputs ("" on success).
	Error string `json:"error,omitempty"`
	// Outputs digests every OUTPUT table of a successful request.
	Outputs []Output `json:"outputs,omitempty"`
}

// ScriptID digests script source text into the event identity form.
func ScriptID(src string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(src))
	return fmt.Sprintf("%016x", h.Sum64())
}

// DigestTable hashes a table's canonical row rendering with FNV-64a —
// the same digest the service's HTTP responses carry, so clients and
// events agree on output identity. It equals hashing each line of
// t.Canonical() followed by a newline, but renders every row into one
// byte arena and sorts small keys over it, where Canonical builds and
// sorts a string per row (a quarter of a warm request's CPU).
func DigestTable(t *exec.Table) uint64 {
	// rowKey orders rows by their first eight rendered bytes (big-endian,
	// zero-padded — consistent with bytes.Compare wherever the prefixes
	// differ) and touches the arena only to break ties.
	type rowKey struct {
		prefix   uint64
		from, to int
	}
	arena := make([]byte, 0, 16*len(t.Rows))
	keys := make([]rowKey, len(t.Rows))
	for i, r := range t.Rows {
		from := len(arena)
		for j, v := range r {
			if j > 0 {
				arena = append(arena, '|')
			}
			arena = v.AppendText(arena)
		}
		var head [8]byte
		copy(head[:], arena[from:])
		keys[i] = rowKey{prefix: binary.BigEndian.Uint64(head[:]), from: from, to: len(arena)}
	}
	slices.SortFunc(keys, func(a, b rowKey) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return bytes.Compare(arena[a.from:a.to], arena[b.from:b.to])
	})
	h := fnv.New64a()
	for _, k := range keys {
		_, _ = h.Write(arena[k.from:k.to])
		_, _ = h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Digests digests every output table in path order.
func Digests(outputs map[string]*exec.Table) []OutputDigest {
	paths := make([]string, 0, len(outputs))
	for p := range outputs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]OutputDigest, 0, len(paths))
	for _, p := range paths {
		t := outputs[p]
		out = append(out, OutputDigest{Path: p, Rows: len(t.Rows), Digest: DigestTable(t)})
	}
	return out
}

// HexOutputs renders digests in the event form.
func HexOutputs(ds []OutputDigest) []Output {
	out := make([]Output, len(ds))
	for i, d := range ds {
		out[i] = Output{Path: d.Path, Rows: d.Rows, Digest: fmt.Sprintf("%016x", d.Digest)}
	}
	return out
}

// Mask is a bit set over a request's subexpression identities: bit i
// set means the i-th identity was covered.
type Mask []uint64

// Set sets bit i, growing the mask as needed.
func (m *Mask) Set(i int) {
	for len(*m) <= i/64 {
		*m = append(*m, 0)
	}
	(*m)[i/64] |= 1 << (i % 64)
}

// Has reports whether bit i is set.
func (m Mask) Has(i int) bool { return i/64 < len(m) && m[i/64]&(1<<(i%64)) != 0 }

// Compact is one request's event as a service submits it: the scalar
// fields in Event (its Covered, Uncovered and Outputs left nil), the
// script's subexpression identities in order with a mask of the covered
// ones, and the output digests as integers. The log renders Covered,
// Uncovered and Outputs from them only when the event leaves it.
type Compact struct {
	Event
	IDs     []core.Subexpr
	Covered Mask
	Digests []OutputDigest
}

// render returns the event with Covered and Uncovered rendered from
// the identities in IDs order and Outputs from the digests. An event
// submitted in rendered form is returned as is.
func (c *Compact) render() Event {
	ev := c.Event
	if c.IDs == nil && c.Digests == nil {
		return ev
	}
	for i, id := range c.IDs {
		if c.Covered.Has(i) {
			ev.Covered = append(ev.Covered, id.String())
		} else {
			ev.Uncovered = append(ev.Uncovered, id.String())
		}
	}
	ev.Outputs = HexOutputs(c.Digests)
	return ev
}

// maxSinkEvents bounds the JSONL sink buffer; past it the oldest half
// is discarded (and counted in SinkDropped) so an unattended server
// cannot grow without bound.
const maxSinkEvents = 1 << 18

// Log is the query event log: a bounded flight-recorder ring plus an
// optional FileStore JSONL sink. All methods are safe for concurrent
// use and are no-ops on a nil *Log, following the obs convention that
// disabled must be free.
type Log struct {
	capacity int

	mu sync.Mutex
	// ring is circular once full: next is the slot the next event
	// overwrites, which is the oldest one.
	ring []Compact // guarded by mu; len <= capacity
	next int       // guarded by mu
	// newest maps a script to the ring slot of its newest event, so that
	// a repeated script's event shares that event's identity slice, and
	// its digest slice when the outputs did not change.
	newest map[string]int   // guarded by mu
	seq    int64            // guarded by mu
	occ    map[string]int64 // guarded by mu; per tenant|script occurrence count
	// sink state: lines buffers every event's JSON until Flush writes
	// the whole history through the metered FileStore as one table.
	fs          *exec.FileStore // guarded by mu
	path        string          // guarded by mu
	lines       []string        // guarded by mu
	sinkDropped int64           // guarded by mu
}

// New returns a log whose flight recorder keeps the last capacity
// events (<= 0 uses DefaultCap).
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Log{capacity: capacity, newest: map[string]int{}, occ: map[string]int64{}}
}

// Cap returns the flight-recorder capacity.
func (l *Log) Cap() int {
	if l == nil {
		return 0
	}
	return l.capacity
}

// AttachSink directs the full event history (not just the ring) to a
// JSONL file stored under path in the metered FileStore. The file is
// written by Flush; events arriving past the sink bound drop oldest
// first.
func (l *Log) AttachSink(fs *exec.FileStore, path string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.fs, l.path = fs, path
	l.mu.Unlock()
}

// nowMicros reads the wall clock for event timestamps. It is the only
// clock read in the package and the only eventlog entry on the
// scopevet nondet allowlist; canonical streams zero the field.
func nowMicros() int64 {
	return time.Now().UnixMicro()
}

// Submit assigns the event its sequence number, deterministic ID, and
// timestamp, then records it in the flight recorder (and the sink
// buffer when attached). The completed event is returned.
func (l *Log) Submit(ev Event) Event {
	if l == nil {
		return ev
	}
	return l.submit(Compact{Event: ev}).Event
}

// SubmitCompact is Submit for an event whose identities and digests are
// still values; the service submits every request this way.
func (l *Log) SubmitCompact(c Compact) {
	if l == nil {
		return
	}
	l.submit(c)
}

func (l *Log) submit(c Compact) Compact {
	c.TimeUs = nowMicros()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	c.Seq = l.seq
	key := c.Tenant + "|" + c.Script
	l.occ[key]++
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	c.ID = fmt.Sprintf("%016x-%d", h.Sum64(), l.occ[key])
	if i, ok := l.newest[c.Script]; ok {
		prev := &l.ring[i]
		if len(c.IDs) > 0 && slices.Equal(prev.IDs, c.IDs) {
			c.IDs = prev.IDs
		}
		if len(c.Digests) > 0 && slices.Equal(prev.Digests, c.Digests) {
			c.Digests = prev.Digests
		}
	}
	slot := len(l.ring)
	if slot < l.capacity {
		l.ring = append(l.ring, c)
	} else {
		slot = l.next
		if old := l.ring[slot].Script; l.newest[old] == slot {
			delete(l.newest, old)
		}
		l.ring[slot] = c
		l.next = (slot + 1) % l.capacity
	}
	l.newest[c.Script] = slot
	if l.fs != nil {
		if len(l.lines) == maxSinkEvents {
			n := copy(l.lines, l.lines[maxSinkEvents/2:])
			l.lines = l.lines[:n]
			l.sinkDropped += maxSinkEvents - int64(n)
		}
		l.lines = append(l.lines, marshalEvent(c.render()))
	}
	return c
}

// marshalEvent renders one event as its JSON line. Event is a plain
// struct of encodable fields, so the error path is unreachable; a
// marshal failure would surface as a visibly broken line, not a
// silent drop.
func marshalEvent(ev Event) string {
	b, err := json.Marshal(ev)
	if err != nil {
		return fmt.Sprintf(`{"seq":%d,"error":%q}`, ev.Seq, "eventlog: marshal: "+err.Error())
	}
	return string(b)
}

// Len returns how many events have ever been submitted (the ring
// keeps only the most recent Cap of them).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.seq)
}

// SinkDropped reports how many events fell off the bounded sink
// buffer before a Flush captured them.
func (l *Log) SinkDropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkDropped
}

// Events returns the flight-recorder ring, oldest first.
func (l *Log) Events() []Event {
	return l.Recent("", 0)
}

// Recent returns up to n ring events (0 = all), oldest first,
// filtered by tenant when tenant is non-empty. Only the events returned
// are copied and rendered.
func (l *Log) Recent(tenant string, n int) []Event {
	if l == nil {
		return nil
	}
	var picked []Compact
	l.mu.Lock()
	if len(l.ring) == 0 {
		l.mu.Unlock()
		return nil
	}
	// Walk newest to oldest from the slot before next.
	for k := 1; k <= len(l.ring) && (n <= 0 || len(picked) < n); k++ {
		c := &l.ring[(l.next-k+len(l.ring))%len(l.ring)]
		if tenant == "" || c.Tenant == tenant {
			picked = append(picked, *c)
		}
	}
	l.mu.Unlock()
	out := make([]Event, len(picked))
	for i := range picked {
		out[len(picked)-1-i] = picked[i].render()
	}
	return out
}

// Flush writes the buffered sink history through the metered
// FileStore as a one-column JSONL table (each row holds one event
// line; the table's bytes are what eviction and disk meters account).
// No-op when no sink is attached.
func (l *Log) Flush() {
	if l == nil {
		return
	}
	l.mu.Lock()
	fs, path := l.fs, l.path
	lines := append([]string(nil), l.lines...)
	l.mu.Unlock()
	if fs == nil {
		return
	}
	t := &exec.Table{Schema: relop.Schema{{Name: "event", Type: relop.TString}}}
	for _, line := range lines {
		t.Rows = append(t.Rows, relop.Row{relop.StringVal(line)})
	}
	fs.Put(path, t)
}

// SinkJSONL returns the flushed sink file's content as JSONL bytes
// (nil when no sink was attached or Flush never ran). CLIs use it to
// export the history to a host file — outside the metered simulator,
// where raw IO is allowed.
func (l *Log) SinkJSONL() []byte {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	fs, path := l.fs, l.path
	l.mu.Unlock()
	if fs == nil {
		return nil
	}
	t, ok := fs.Get(path)
	if !ok {
		return nil
	}
	var b strings.Builder
	for _, row := range t.Rows {
		b.WriteString(row[0].S)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// DumpRecent writes the last n ring events (0 = all) as JSONL — the
// flight-recorder dump the service emits when a request fails or a
// worker panics.
func (l *Log) DumpRecent(w io.Writer, n int) {
	if l == nil || w == nil {
		return
	}
	for _, ev := range l.Recent("", n) {
		fmt.Fprintln(w, marshalEvent(ev))
	}
}

// Canonical returns the event with its timing fields zeroed —
// everything left is a pure function of the workload and the sharing
// state, which is what the width-determinism regression compares.
func Canonical(ev Event) Event {
	ev.TimeUs = 0
	ev.QueueUs = 0
	ev.LatencyUs = 0
	return ev
}

// CanonicalJSONL renders events as JSONL with timing zeroed. Streams
// of the same workload are byte-identical at any worker-pool width.
func CanonicalJSONL(events []Event) []byte {
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(marshalEvent(Canonical(ev)))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// JSONL renders events verbatim (timestamps included).
func JSONL(events []Event) []byte {
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(marshalEvent(ev))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// ReadJSONL parses an event stream (one JSON event per line; blank
// lines skipped). A malformed line fails the whole read — a replay
// over a corrupt log should say so, not silently skip records.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Summary is the aggregate view of an event stream — the same
// sharing statistics the service's registry counts live, recomputed
// offline from the log (the paper's log-analysis methodology applied
// to our own telemetry).
type Summary struct {
	Events int
	Errors int
	// Sharing is the field-wise sum of the events' sharing counters.
	Sharing
	Folded  int64
	Spills  int64
	QErrMax float64
	// P50Us / P99Us are latency quantiles interpolated from a
	// power-of-two histogram over the recorded latencies — the same
	// estimator the serve bench reports. QueueP50Us is the median
	// submit-to-run-start wait, by the same estimator.
	P50Us      int64
	P99Us      int64
	QueueP50Us int64
	// TenantRequests counts events per tenant.
	TenantRequests map[string]int64
}

// HitRatio returns hits / (hits + misses), or 0 with no lookups.
func (s Summary) HitRatio() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// FoldRate returns the fraction of events the batching window folded
// behind a group leader.
func (s Summary) FoldRate() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Folded) / float64(s.Events)
}

// Summarize recomputes the sharing statistics of an event stream.
func Summarize(events []Event) Summary {
	s := Summary{TenantRequests: map[string]int64{}}
	var lat, queue obs.Histogram
	for _, ev := range events {
		s.Events++
		if ev.Error != "" {
			s.Errors++
		}
		s.Sharing.Add(ev.Sharing)
		if ev.Folded {
			s.Folded++
		}
		s.Spills += int64(ev.Spills)
		if ev.QErrMax > s.QErrMax {
			s.QErrMax = ev.QErrMax
		}
		s.TenantRequests[ev.Tenant]++
		lat.Observe(ev.LatencyUs)
		queue.Observe(ev.QueueUs)
	}
	s.P50Us = int64(lat.Quantile(0.50))
	s.P99Us = int64(lat.Quantile(0.99))
	s.QueueP50Us = int64(queue.Quantile(0.50))
	return s
}

// String renders the summary as the stable two-line replay report.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d errors=%d hits=%d misses=%d folded=%d admitted=%d admitted_bytes=%d quota_rejected=%d evicted=%d spills=%d\n",
		s.Events, s.Errors, s.CacheHits, s.CacheMisses, s.Folded,
		s.Admitted, s.AdmittedBytes, s.QuotaRejected, s.Evicted, s.Spills)
	fmt.Fprintf(&b, "hit_ratio=%.1f%% fold_rate=%.1f%% qerr_max=%.2f p50=%s p99=%s queue_p50=%s\n",
		s.HitRatio()*100, s.FoldRate()*100, s.QErrMax,
		time.Duration(s.P50Us)*time.Microsecond,
		time.Duration(s.P99Us)*time.Microsecond,
		time.Duration(s.QueueP50Us)*time.Microsecond)
	tenants := make([]string, 0, len(s.TenantRequests))
	for t := range s.TenantRequests {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for i, t := range tenants {
		if i == 0 {
			b.WriteString("tenants:")
		}
		fmt.Fprintf(&b, " %s=%d", t, s.TenantRequests[t])
	}
	if len(tenants) > 0 {
		b.WriteByte('\n')
	}
	return b.String()
}
