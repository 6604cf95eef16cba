package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/relop"
)

func TestRingBounded(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Submit(Event{Tenant: "a", Script: ScriptID(fmt.Sprintf("q%d", i))})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want capacity 4", len(evs))
	}
	if l.Len() != 10 {
		t.Errorf("Len() = %d, want 10 total submissions", l.Len())
	}
	// Oldest first: the survivors are submissions 7..10.
	for i, ev := range evs {
		if want := int64(7 + i); ev.Seq != want {
			t.Errorf("ring[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestDeterministicIDs(t *testing.T) {
	mk := func() []Event {
		l := New(16)
		var out []Event
		out = append(out, l.Submit(Event{Tenant: "a", Script: ScriptID("s1")}))
		out = append(out, l.Submit(Event{Tenant: "b", Script: ScriptID("s1")}))
		out = append(out, l.Submit(Event{Tenant: "a", Script: ScriptID("s1")}))
		out = append(out, l.Submit(Event{Tenant: "a", Script: ScriptID("s2")}))
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Errorf("event %d: ID %q differs across identical runs (%q)", i, a[i].ID, b[i].ID)
		}
	}
	// Same identity resubmitted gets a new occurrence suffix, distinct
	// identities distinct prefixes.
	if a[0].ID == a[2].ID {
		t.Errorf("repeat submission reused ID %q; want a new occurrence", a[0].ID)
	}
	if !strings.HasSuffix(a[0].ID, "-1") || !strings.HasSuffix(a[2].ID, "-2") {
		t.Errorf("occurrence suffixes wrong: %q then %q", a[0].ID, a[2].ID)
	}
	if a[0].ID[:16] == a[1].ID[:16] || a[0].ID[:16] == a[3].ID[:16] {
		t.Errorf("distinct identities share an ID prefix: %q %q %q", a[0].ID, a[1].ID, a[3].ID)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := New(8)
	l.Submit(Event{
		Tenant: "a", Script: ScriptID("s1"),
		Covered: []string{"0000000000000007.a5c3b1d2e4f60718"}, Uncovered: []string{"0000000000000009.0123456789abcdef"},
		Folded: true, GroupSize: 3,
		Sharing: Sharing{CacheHits: 1, CacheMisses: 2, Admitted: 2, AdmittedBytes: 640,
			QuotaRejected: 1, Evicted: 1},
		Spills: 4, QErrMax: 2.5, QueueUs: 77,
		Outputs: []Output{{Path: "/out/a", Rows: 10, Digest: "00deadbeef000000"}},
	})
	l.Submit(Event{Tenant: "b", Script: ScriptID("s2"), Error: "boom", GroupSize: 1})
	evs := l.Events()
	got, err := ReadJSONL(bytes.NewReader(JSONL(evs)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip returned %d events, want 2", len(got))
	}
	wantJSON := JSONL(evs)
	gotJSON := JSONL(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("round trip changed the stream:\n%s\nvs\n%s", wantJSON, gotJSON)
	}
}

// TestSharingOneDeclaration holds Record and Add to the struct they
// sit beside: every field of Sharing lands in the registry under its
// own JSON key, and Add sums every field — so a counter added to the
// struct and forgotten in either method fails here.
func TestSharingOneDeclaration(t *testing.T) {
	var c Sharing
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum := c
	sum.Add(c)
	reg := obs.NewRegistry()
	sum.Record(reg, "p.")
	got := reg.Snapshot().Counters
	if len(got) != v.NumField() {
		t.Errorf("Record published %d series for %d fields: %v", len(got), v.NumField(), got)
	}
	for i := 0; i < v.NumField(); i++ {
		key := v.Type().Field(i).Tag.Get("json")
		if got["p."+key] != int64(2*(i+1)) {
			t.Errorf("field %s: registry p.%s = %d, want %d", v.Type().Field(i).Name, key, got["p."+key], 2*(i+1))
		}
	}
}

// TestEventWireFormat pins the event's JSON keys and their order: the
// embedded Sharing block flattens in place, and queue_us sits beside
// latency_us.
func TestEventWireFormat(t *testing.T) {
	ev := Event{
		Seq: 1, ID: "x-1", TimeUs: 2, Tenant: "a", Script: "s", Covered: []string{"c"}, Uncovered: []string{"u"},
		Folded: true, GroupSize: 2,
		Sharing: Sharing{CacheHits: 3, CacheMisses: 4, Admitted: 5, AdmittedBytes: 6, QuotaRejected: 7, Evicted: 8},
		Spills:  9, QErrMax: 1.5, QueueUs: 10, LatencyUs: 11, Error: "e",
		Outputs: HexOutputs([]OutputDigest{{Path: "/o", Rows: 1, Digest: 0xdeadbeef}}),
	}
	const want = `{"seq":1,"id":"x-1","time_us":2,"tenant":"a","script":"s","covered":["c"],"uncovered":["u"],` +
		`"folded":true,"group_size":2,"cache_hits":3,"cache_misses":4,"admitted":5,"admitted_bytes":6,` +
		`"quota_rejected":7,"evicted":8,"spills":9,"qerr_max":1.5,"queue_us":10,"latency_us":11,"error":"e",` +
		`"outputs":[{"path":"/o","rows":1,"digest":"00000000deadbeef"}]}`
	if got := marshalEvent(ev); got != want {
		t.Errorf("event JSON\n got %s\nwant %s", got, want)
	}
}

func TestReadJSONLMalformed(t *testing.T) {
	in := `{"seq":1,"tenant":"a"}` + "\n\nnot json\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("malformed line did not fail the read")
	} else if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v does not name the offending line", err)
	}
}

func TestCanonicalZeroesTiming(t *testing.T) {
	l := New(8)
	ev := l.Submit(Event{Tenant: "a", Script: ScriptID("s1"), QueueUs: 56, LatencyUs: 1234})
	if ev.TimeUs == 0 {
		t.Fatal("Submit did not stamp TimeUs")
	}
	c := Canonical(ev)
	if c.TimeUs != 0 || c.QueueUs != 0 || c.LatencyUs != 0 {
		t.Errorf("Canonical left timing: time_us=%d queue_us=%d latency_us=%d", c.TimeUs, c.QueueUs, c.LatencyUs)
	}
	if c.Seq != ev.Seq || c.ID != ev.ID || c.Tenant != ev.Tenant {
		t.Error("Canonical changed non-timing fields")
	}
	jl := string(CanonicalJSONL(l.Events()))
	if !strings.Contains(jl, `"time_us":0`) || !strings.Contains(jl, `"queue_us":0`) || !strings.Contains(jl, `"latency_us":0`) {
		t.Errorf("CanonicalJSONL kept timing: %s", jl)
	}
}

func TestRecentFilter(t *testing.T) {
	l := New(16)
	for i := 0; i < 6; i++ {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		l.Submit(Event{Tenant: tenant, Script: ScriptID(fmt.Sprintf("s%d", i))})
	}
	got := l.Recent("b", 2)
	if len(got) != 2 {
		t.Fatalf("Recent(b,2) returned %d events", len(got))
	}
	for _, ev := range got {
		if ev.Tenant != "b" {
			t.Errorf("tenant filter leaked event for %q", ev.Tenant)
		}
	}
	if got[0].Seq != 4 || got[1].Seq != 6 {
		t.Errorf("Recent returned seqs %d,%d, want the newest matches 4,6", got[0].Seq, got[1].Seq)
	}
	if n := len(l.Recent("", 0)); n != 6 {
		t.Errorf("Recent(\"\",0) returned %d events, want all 6", n)
	}
}

func TestSinkFlushThroughFileStore(t *testing.T) {
	fs := exec.NewFileStore()
	l := New(2) // ring smaller than history: sink must keep everything
	l.AttachSink(fs, "/sys/events.jsonl")
	for i := 0; i < 5; i++ {
		l.Submit(Event{Tenant: "a", Script: ScriptID(fmt.Sprintf("s%d", i))})
	}
	l.Flush()
	tab, ok := fs.Get("/sys/events.jsonl")
	if !ok {
		t.Fatal("Flush did not write the sink table")
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("sink holds %d rows, want full history of 5", len(tab.Rows))
	}
	evs, err := ReadJSONL(bytes.NewReader(l.SinkJSONL()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 || evs[0].Seq != 1 || evs[4].Seq != 5 {
		t.Fatalf("SinkJSONL round trip wrong: %d events", len(evs))
	}
}

func TestDumpRecent(t *testing.T) {
	l := New(8)
	l.Submit(Event{Tenant: "a", Script: ScriptID("s1"), Error: "boom"})
	var b bytes.Buffer
	l.DumpRecent(&b, 0)
	var ev Event
	if err := json.Unmarshal(b.Bytes(), &ev); err != nil {
		t.Fatalf("dump line is not JSON: %v", err)
	}
	if ev.Error != "boom" {
		t.Errorf("dump lost the error field: %+v", ev)
	}
}

func TestDigestOutputsSorted(t *testing.T) {
	tab := &exec.Table{Schema: relop.Schema{{Name: "x", Type: relop.TInt}}}
	tab.Rows = append(tab.Rows, relop.Row{relop.IntVal(1)}, relop.Row{relop.IntVal(2)})
	outs := HexOutputs(Digests(map[string]*exec.Table{"/out/b": tab, "/out/a": tab}))
	if len(outs) != 2 || outs[0].Path != "/out/a" || outs[1].Path != "/out/b" {
		t.Fatalf("outputs not in path order: %+v", outs)
	}
	if outs[0].Digest != outs[1].Digest || outs[0].Rows != 2 {
		t.Errorf("same table digested differently: %+v", outs)
	}
	if len(outs[0].Digest) != 16 {
		t.Errorf("digest %q is not fixed-width hex", outs[0].Digest)
	}
}

// TestDigestTableMatchesCanonical holds DigestTable's arena rendering
// to its definition — FNV-64a over each line of Table.Canonical() and
// a newline — on random tables whose values stress the rendering:
// negative ints, floats in every notation, and strings containing the
// column separator, quotes and newlines.
func TestDigestTableMatchesCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	strs := []string{"", "a", "a|b", "\"", "x\ny", "|", "1", "ü", "a\\", "\x00"}
	floats := []float64{0, -0.5, 1e21, 1e-7, 3.25, math.Inf(1), math.MaxFloat64, -1}
	value := func() relop.Value {
		switch r.Intn(4) {
		case 0:
			return relop.IntVal(r.Int63n(2001) - 1000)
		case 1:
			return relop.FloatVal(floats[r.Intn(len(floats))] * float64(r.Intn(3)))
		case 2:
			return relop.StringVal(strs[r.Intn(len(strs))] + strs[r.Intn(len(strs))])
		default:
			return relop.Value{Kind: relop.Type(99)} // renders as "?"
		}
	}
	for n := 0; n < 200; n++ {
		tab := &exec.Table{}
		cols := r.Intn(4)
		for i, rows := 0, r.Intn(40); i < rows; i++ {
			row := make(relop.Row, cols)
			for j := range row {
				row[j] = value()
			}
			tab.Rows = append(tab.Rows, row)
			if r.Intn(3) == 0 {
				tab.Rows = append(tab.Rows, row) // duplicates sort adjacently
			}
		}
		h := fnv.New64a()
		for _, line := range tab.Canonical() {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		if got, want := DigestTable(tab), h.Sum64(); got != want {
			t.Fatalf("table %d (%d rows x %d cols): digest %016x, canonical %016x\n%s",
				n, len(tab.Rows), cols, got, want, strings.Join(tab.Canonical(), "\n"))
		}
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	ev := l.Submit(Event{Tenant: "a"})
	if ev.Seq != 0 {
		t.Error("nil Submit assigned a sequence")
	}
	if l.Len() != 0 || l.Cap() != 0 || l.Events() != nil || l.Recent("", 1) != nil ||
		l.SinkJSONL() != nil || l.SinkDropped() != 0 {
		t.Error("nil log accessors not zero")
	}
	l.AttachSink(nil, "")
	l.Flush()
	l.DumpRecent(nil, 0)
}

// TestSummarize checks the offline recompute against hand-built
// events — the replay side of the additivity invariant.
func TestSummarize(t *testing.T) {
	events := []Event{
		{Tenant: "a", Sharing: Sharing{CacheHits: 2, CacheMisses: 1, Admitted: 1, AdmittedBytes: 100, Evicted: 1},
			Folded: true, Spills: 2, QErrMax: 3, QueueUs: 1000, LatencyUs: 100},
		{Tenant: "b", Sharing: Sharing{CacheHits: 1, CacheMisses: 0, QuotaRejected: 2}, QErrMax: 5, QueueUs: 2000, LatencyUs: 200},
		{Tenant: "a", Error: "boom", QueueUs: 4000, LatencyUs: 400},
	}
	s := Summarize(events)
	if s.Events != 3 || s.Errors != 1 || s.CacheHits != 3 || s.CacheMisses != 1 ||
		s.Folded != 1 || s.Admitted != 1 || s.AdmittedBytes != 100 ||
		s.QuotaRejected != 2 || s.Evicted != 1 || s.Spills != 2 {
		t.Errorf("summary totals wrong: %+v", s)
	}
	if s.QErrMax != 5 {
		t.Errorf("QErrMax = %g, want the stream max 5", s.QErrMax)
	}
	if s.TenantRequests["a"] != 2 || s.TenantRequests["b"] != 1 {
		t.Errorf("tenant counts wrong: %v", s.TenantRequests)
	}
	if got := s.HitRatio(); got != 0.75 {
		t.Errorf("HitRatio = %g, want 0.75", got)
	}
	if s.P50Us <= 0 || s.P99Us < s.P50Us {
		t.Errorf("latency quantiles wrong: p50=%d p99=%d", s.P50Us, s.P99Us)
	}
	if s.QueueP50Us < 1000 || s.QueueP50Us > 4000 {
		t.Errorf("queue p50 = %d, want within the submitted waits [1000, 4000]", s.QueueP50Us)
	}
	if !strings.Contains(s.String(), " queue_p50=") {
		t.Errorf("report lacks the queue median: %q", s.String())
	}
	out := s.String()
	if !strings.HasPrefix(out, "events=3 errors=1 hits=3 misses=1 folded=1 admitted=1 ") {
		t.Errorf("report prefix wrong: %q", out)
	}
	if !strings.Contains(out, "tenants: a=2 b=1") {
		t.Errorf("report lacks sorted tenant counts: %q", out)
	}
}

// TestConcurrentSubmit hammers Submit from many goroutines (run under
// -race by check.sh): the ring never exceeds capacity, every event is
// well-formed JSON, sequence numbers are unique, and summed event
// fields equal the per-goroutine totals (additivity invariant).
func TestConcurrentSubmit(t *testing.T) {
	const workers, perWorker = 8, 200
	l := New(64)
	fs := exec.NewFileStore()
	l.AttachSink(fs, "/sys/events.jsonl")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Submit(Event{
					Tenant:  fmt.Sprintf("t%d", w),
					Script:  ScriptID(fmt.Sprintf("s%d", i%4)),
					Sharing: Sharing{CacheHits: 1, CacheMisses: 2, AdmittedBytes: 10},
				})
				if i%16 == 0 {
					l.Events()
					l.Recent("", 4)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(l.Events()); got > l.Cap() {
		t.Fatalf("ring grew to %d, capacity %d", got, l.Cap())
	}
	if l.Len() != workers*perWorker {
		t.Fatalf("Len() = %d, want %d", l.Len(), workers*perWorker)
	}
	l.Flush()
	evs, err := ReadJSONL(bytes.NewReader(l.SinkJSONL()))
	if err != nil {
		t.Fatalf("sink stream malformed: %v", err)
	}
	if len(evs) != workers*perWorker {
		t.Fatalf("sink holds %d events, want %d", len(evs), workers*perWorker)
	}
	seqs := map[int64]bool{}
	for _, ev := range evs {
		if ev.Seq <= 0 || seqs[ev.Seq] {
			t.Fatalf("duplicate or missing seq %d", ev.Seq)
		}
		seqs[ev.Seq] = true
	}
	s := Summarize(evs)
	wantTotal := workers * perWorker
	if s.CacheHits != wantTotal || s.CacheMisses != 2*wantTotal || s.AdmittedBytes != int64(10*wantTotal) {
		t.Errorf("summed fields diverge from submissions: %+v", s)
	}
}

func TestSinkBounded(t *testing.T) {
	fs := exec.NewFileStore()
	l := New(4)
	l.AttachSink(fs, "/sys/events.jsonl")
	l.mu.Lock()
	// Pre-fill the sink buffer to the bound so the next Submit trips
	// the oldest-half drop without 2^18 real submissions.
	for i := 0; i < maxSinkEvents; i++ {
		l.lines = append(l.lines, `{"seq":0}`)
	}
	l.mu.Unlock()
	l.Submit(Event{Tenant: "a", Script: ScriptID("s")})
	if got := l.SinkDropped(); got != maxSinkEvents/2 {
		t.Errorf("SinkDropped = %d, want %d", got, maxSinkEvents/2)
	}
	l.mu.Lock()
	n := len(l.lines)
	l.mu.Unlock()
	if n != maxSinkEvents/2+1 {
		t.Errorf("sink buffer holds %d lines, want %d", n, maxSinkEvents/2+1)
	}
}

// TestCompactEventRendersLikeEvent: an event submitted with its ids as
// values, a covered mask and integer digests leaves the log — through
// Events, Recent, DumpRecent and the sink — as the same JSON bytes as
// the event submitted with the rendered strings. A repeated script's
// equal ids and digests share one slice each, and the ring stays
// oldest-first once it wraps.
func TestCompactEventRendersLikeEvent(t *testing.T) {
	ids := []core.Subexpr{{FP: 1, Sig: 0xaf63bd4c8601b7be}, {FP: 3, Sig: 2}, {FP: 5, Sig: 3}, {FP: 70, Sig: 4}}
	var covered Mask
	covered.Set(0)
	covered.Set(3)
	digests := []OutputDigest{{Path: "/out/a", Rows: 4, Digest: 0xdeadbeef}}
	base := Event{Tenant: "a", Script: ScriptID("s"), GroupSize: 1, PlanCached: true,
		Sharing: Sharing{CacheHits: 2, CacheMisses: 1}, LatencyUs: 17}
	rendered := base
	rendered.Covered = []string{ids[0].String(), ids[3].String()}
	rendered.Uncovered = []string{ids[1].String(), ids[2].String()}
	rendered.Outputs = HexOutputs(digests)

	plain, compact := New(3), New(3)
	fsP, fsC := exec.NewFileStore(), exec.NewFileStore()
	plain.AttachSink(fsP, "/e.jsonl")
	compact.AttachSink(fsC, "/e.jsonl")
	for i := 0; i < 5; i++ {
		ev := rendered
		ev.Tenant = fmt.Sprint("t", i%2)
		plain.Submit(ev)
		c := Compact{Event: base, IDs: slices.Clone(ids), Covered: covered, Digests: slices.Clone(digests)}
		c.Tenant = ev.Tenant
		compact.SubmitCompact(c)
	}
	plain.Flush()
	compact.Flush()
	var dumpP, dumpC bytes.Buffer
	plain.DumpRecent(&dumpP, 2)
	compact.DumpRecent(&dumpC, 2)
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"Events", CanonicalJSONL(compact.Events()), CanonicalJSONL(plain.Events())},
		{"Recent", CanonicalJSONL(compact.Recent("t1", 1)), CanonicalJSONL(plain.Recent("t1", 1))},
		{"DumpRecent", dumpC.Bytes(), dumpP.Bytes()},
		{"sink", compact.SinkJSONL(), plain.SinkJSONL()},
	} {
		// Timestamps differ between the two logs; everything else must not.
		if c.name == "DumpRecent" || c.name == "sink" {
			got, err := ReadJSONL(bytes.NewReader(c.got))
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReadJSONL(bytes.NewReader(c.want))
			if err != nil {
				t.Fatal(err)
			}
			c.got, c.want = CanonicalJSONL(got), CanonicalJSONL(want)
		}
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
	if !strings.Contains(string(CanonicalJSONL(compact.Events())), `"plan_cached":true`) {
		t.Error("plan_cached missing from a served request's event")
	}
	if evs := compact.Events(); len(evs) != 3 || evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("wrapped ring holds %d events from seq %d, want 3 from 3", len(evs), evs[0].Seq)
	}
	compact.mu.Lock()
	defer compact.mu.Unlock()
	for i, c := range compact.ring {
		if &c.IDs[0] != &compact.ring[0].IDs[0] || &c.Digests[0] != &compact.ring[0].Digests[0] {
			t.Errorf("ring slot %d keeps its own copy of the script's ids or digests", i)
		}
	}
}

// BenchmarkSubmit prices one event end to end (struct fill already
// done by the caller): marshal + ring append under the mutex. The
// serve overhead claim (EXPERIMENTS E25) divides this by the serve
// bench's per-request latency.
func BenchmarkSubmit(b *testing.B) {
	l := New(256)
	ev := Event{
		Tenant: "bench", Script: ScriptID("script"),
		Covered:   []string{"0000000000000001.af63bd4c8601b7be", "0000000000000003.af63be4c8601b971"},
		Uncovered: []string{"0000000000000005.af63bf4c8601bb24"},
		Sharing:   Sharing{CacheHits: 2, CacheMisses: 1, Admitted: 1, AdmittedBytes: 64000},
		LatencyUs: 17000,
		Outputs:   []Output{{Path: "/out/a", Digest: "00000000deadbeef", Rows: 4}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Submit(ev)
	}
}
