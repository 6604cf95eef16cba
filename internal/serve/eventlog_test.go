package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/eventlog"
)

// TestEventLogPerRequest submits a small sequential workload and
// checks the event stream records one event per request with the
// sharing facts the responses report.
func TestEventLogPerRequest(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()

	repA, err := s.Submit(ctx, "alice", scriptA)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := s.Submit(ctx, "bob", scriptB)
	if err != nil {
		t.Fatal(err)
	}
	events := s.EventLog().Events()
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	evA, evB := events[0], events[1]
	if evA.Tenant != "alice" || evB.Tenant != "bob" {
		t.Fatalf("tenants %q,%q", evA.Tenant, evB.Tenant)
	}
	if evA.Script != eventlog.ScriptID(scriptA) || evB.Script != eventlog.ScriptID(scriptB) {
		t.Error("script digests do not match the submitted sources")
	}
	if evA.CacheHits != repA.CacheHits || evA.CacheMisses != repA.CacheMisses ||
		evA.Admitted != repA.Admitted || evA.AdmittedBytes != repA.AdmittedBytes {
		t.Errorf("alice event %+v diverges from report %+v", evA, repA)
	}
	if evB.CacheHits != repB.CacheHits || repB.CacheHits == 0 {
		t.Errorf("bob's event should record the cross-client hits: ev=%d rep=%d",
			evB.CacheHits, repB.CacheHits)
	}
	// Cold alice saw the shared aggregation uncovered; warm bob saw it
	// covered.
	if len(evA.Uncovered) == 0 || len(evA.Covered) != 0 {
		t.Errorf("cold request covered=%v uncovered=%v", evA.Covered, evA.Uncovered)
	}
	if len(evB.Covered) == 0 {
		t.Errorf("warm request recorded no covered subexpressions: %+v", evB)
	}
	if evA.GroupSize != 1 || evA.Folded || evB.Folded {
		t.Errorf("sequential dispatch recorded folding: %+v %+v", evA, evB)
	}
	// Output digests are those of the report's tables.
	want := eventlog.HexOutputs(eventlog.Digests(repA.Outputs))
	if len(evA.Outputs) != len(want) {
		t.Fatalf("event has %d outputs, want %d", len(evA.Outputs), len(want))
	}
	for i := range want {
		if evA.Outputs[i] != want[i] {
			t.Errorf("output %d: event %+v vs report %+v", i, evA.Outputs[i], want[i])
		}
	}
	if evA.LatencyUs <= 0 || evA.TimeUs <= 0 {
		t.Errorf("event timing not stamped: %+v", evA)
	}
}

// TestEventLogFailure checks that a failed request still produces an
// event (with the error recorded) and triggers a flight-recorder dump
// whose last line is the failing event.
func TestEventLogFailure(t *testing.T) {
	var dump bytes.Buffer
	s := newTestServer(t, Config{FailureDump: &dump})
	if _, err := s.Submit(context.Background(), "alice", scriptA); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(canceled, "bob", scriptB); err == nil {
		t.Fatal("canceled submission succeeded")
	}
	events := s.EventLog().Events()
	if len(events) != 2 {
		t.Fatalf("%d events, want 2 (success + failure)", len(events))
	}
	fail := events[1]
	if fail.Error == "" || fail.Tenant != "bob" {
		t.Fatalf("failure event not recorded: %+v", fail)
	}
	if dump.Len() == 0 {
		t.Fatal("no flight-recorder dump on failure")
	}
	lines := strings.Split(strings.TrimSpace(dump.String()), "\n")
	// First line is the header comment; the rest must be the ring as
	// well-formed JSONL ending with the failing event.
	if !strings.HasPrefix(lines[0], "#") {
		t.Errorf("dump header missing: %q", lines[0])
	}
	evs, err := eventlog.ReadJSONL(strings.NewReader(strings.Join(lines[1:], "\n")))
	if err != nil {
		t.Fatalf("dump is not JSONL: %v", err)
	}
	if len(evs) != 2 || evs[len(evs)-1].Error == "" {
		t.Errorf("dump should end with the failing event: %+v", evs)
	}
}

// TestEventLogAdditivity is the registry-vs-events invariant: summing
// per-event fields over the whole stream reproduces the registry's
// counters exactly — both sides are projections of the same
// RunReports, failed runs included. Every run spills under the small
// memory budget, and the failing script spills before it fails.
func TestEventLogAdditivity(t *testing.T) {
	s := newTestServer(t, Config{Window: 2 * time.Millisecond, EventCap: 1024, MemBudget: 512})
	var wg sync.WaitGroup
	scripts := []string{scriptA, scriptB, scriptC}
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%3)
			if _, err := s.Submit(context.Background(), tenant, scripts[i%3]); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), fmt.Sprintf("t%d", i), scriptAFails); err == nil {
				t.Errorf("failing submit %d succeeded", i)
			}
		}(i)
	}
	wg.Wait()
	events := s.EventLog().Events()
	sum := eventlog.Summarize(events)
	snap := s.Registry().Snapshot()
	if int64(sum.Events) != snap.Counters["serve.requests"] {
		t.Errorf("events=%d vs serve.requests=%d", sum.Events, snap.Counters["serve.requests"])
	}
	pairs := []struct {
		name  string
		total int64
	}{
		{"share.cache_hits", int64(sum.CacheHits)},
		{"share.cache_misses", int64(sum.CacheMisses)},
		{"share.admitted", int64(sum.Admitted)},
		{"share.admitted_bytes", sum.AdmittedBytes},
		{"share.quota_rejected", int64(sum.QuotaRejected)},
		{"share.cache_evictions", int64(sum.Evicted)},
		{"exec.spills", sum.Spills},
		{"serve.errors", int64(sum.Errors)},
	}
	for _, p := range pairs {
		if snap.Counters[p.name] != p.total {
			t.Errorf("%s: registry=%d events=%d", p.name, snap.Counters[p.name], p.total)
		}
	}
	if got := snap.Counters["serve.folded"]; got != sum.Folded {
		t.Errorf("serve.folded: registry=%d events=%d", got, sum.Folded)
	}
	if sum.Errors != 2 || sum.Spills == 0 {
		t.Fatalf("workload exercised errors=%d spills=%d, want 2 and > 0", sum.Errors, sum.Spills)
	}
	for _, ev := range events {
		if ev.Error != "" && (ev.Spills == 0 || ev.CacheHits+ev.CacheMisses == 0) {
			t.Errorf("failed request's event lost the work it did: %+v", ev)
		}
	}
	// The tenant series are the same records under another prefix.
	var tenantHits, tenantBytes int64
	for i := 0; i < 3; i++ {
		tenantHits += snap.Counters[fmt.Sprintf("serve.tenant.t%d.cache_hits", i)]
		tenantBytes += snap.Counters[fmt.Sprintf("serve.tenant.t%d.admitted_bytes", i)]
	}
	if tenantHits != snap.Counters["share.cache_hits"] || tenantBytes != snap.Counters["share.admitted_bytes"] {
		t.Errorf("tenant series sum to hits=%d bytes=%d, session counted %d and %d", tenantHits, tenantBytes,
			snap.Counters["share.cache_hits"], snap.Counters["share.admitted_bytes"])
	}
	assertQuiescent(t, s)
}

// TestEventLogConcurrency hammers the service from many goroutines
// under -race: the flight-recorder ring stays bounded, the full sink
// history is well-formed JSONL, and event totals stay additive.
func TestEventLogConcurrency(t *testing.T) {
	const workers, perWorker = 8, 6
	s := newTestServer(t, Config{
		Window:        time.Millisecond,
		EventCap:      16, // force ring wraparound
		EventSinkPath: "/sys/events.jsonl",
	})
	scripts := []string{scriptA, scriptB, scriptC}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Submit(context.Background(), fmt.Sprintf("t%d", w), scripts[(w+i)%3]); err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
				}
				if i%2 == 0 {
					s.EventLog().Recent("", 4)
				}
			}
		}(w)
	}
	wg.Wait()
	log := s.EventLog()
	if got := len(log.Events()); got > log.Cap() {
		t.Fatalf("ring grew to %d, capacity %d", got, log.Cap())
	}
	if log.Len() != workers*perWorker {
		t.Fatalf("submitted %d events, want %d", log.Len(), workers*perWorker)
	}
	s.FlushEvents()
	evs, err := eventlog.ReadJSONL(bytes.NewReader(log.SinkJSONL()))
	if err != nil {
		t.Fatalf("sink history malformed: %v", err)
	}
	if len(evs) != workers*perWorker {
		t.Fatalf("sink holds %d events, want %d", len(evs), workers*perWorker)
	}
	sum := eventlog.Summarize(evs)
	snap := s.Registry().Snapshot()
	if int64(sum.CacheHits) != snap.Counters["share.cache_hits"] {
		t.Errorf("hits: events=%d registry=%d", sum.CacheHits, snap.Counters["share.cache_hits"])
	}
	if int64(sum.Evicted) != snap.Counters["share.cache_evictions"] {
		t.Errorf("evictions: events=%d registry=%d", sum.Evicted, snap.Counters["share.cache_evictions"])
	}
	assertQuiescent(t, s)
}

// TestEventLogWidthDeterminism runs the same sequential workload at
// Workers=1 and Workers=8 and requires byte-identical canonical event
// streams — events are a pure function of the workload once timing is
// zeroed.
func TestEventLogWidthDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		cat, fs := testEnv(t)
		s := newTestServer(t, Config{Catalog: cat, FS: fs, Workers: workers})
		for _, src := range []string{scriptA, scriptB, scriptC, scriptA} {
			if _, err := s.Submit(context.Background(), "alice", src); err != nil {
				t.Fatal(err)
			}
		}
		return eventlog.CanonicalJSONL(s.EventLog().Events())
	}
	narrow, wide := run(1), run(8)
	if !bytes.Equal(narrow, wide) {
		t.Errorf("canonical event streams differ across worker widths:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", narrow, wide)
	}
}

// TestIntrospectionEndpoints covers /events and /cache.
func TestIntrospectionEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Window: 2 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for i, src := range []string{scriptA, scriptB} {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, srv.URL+"/run", strings.NewReader(src))
			req.Header.Set(TenantHeader, fmt.Sprintf("t%d", i))
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("run %d: status %d", i, resp.StatusCode)
			}
		}(i, src)
	}
	wg.Wait()

	getJSON := func(path string, out any) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var events []eventlog.Event
	if code := getJSON("/events", &events); code != http.StatusOK {
		t.Fatalf("/events: status %d", code)
	}
	if len(events) != 2 {
		t.Fatalf("/events returned %d events, want 2", len(events))
	}
	var filtered []eventlog.Event
	getJSON("/events?tenant=t0&n=5", &filtered)
	if len(filtered) != 1 || filtered[0].Tenant != "t0" {
		t.Errorf("tenant filter returned %+v", filtered)
	}
	var bad struct{}
	if code := getJSON("/events?n=x", &bad); code != http.StatusBadRequest {
		t.Errorf("/events?n=x: status %d, want 400", code)
	}

	var view struct {
		Stats struct {
			Entries int `json:"Entries"`
		} `json:"stats"`
		Entries []struct {
			Path    string  `json:"path"`
			Owner   string  `json:"owner"`
			Bytes   int64   `json:"bytes"`
			Benefit float64 `json:"benefit"`
		} `json:"entries"`
		OwnerBytes map[string]int64 `json:"owner_bytes"`
	}
	if code := getJSON("/cache", &view); code != http.StatusOK {
		t.Fatalf("/cache: status %d", code)
	}
	if len(view.Entries) == 0 || view.Stats.Entries != len(view.Entries) {
		t.Errorf("/cache view inconsistent: %+v", view)
	}
	var ownerTotal int64
	for _, b := range view.OwnerBytes {
		ownerTotal += b
	}
	var entryTotal int64
	for _, e := range view.Entries {
		entryTotal += e.Bytes
	}
	if ownerTotal != entryTotal {
		t.Errorf("owner bytes %d != entry bytes %d", ownerTotal, entryTotal)
	}

}

// TestPprofGated checks the pprof mount is behind the flag.
func TestPprofGated(t *testing.T) {
	on := newTestServer(t, Config{Pprof: true})
	off := newTestServer(t, Config{})
	srvOn, srvOff := httptest.NewServer(on.Handler()), httptest.NewServer(off.Handler())
	defer srvOn.Close()
	defer srvOff.Close()
	resp, err := srvOn.Client().Get(srvOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: status %d, want 200", resp.StatusCode)
	}
	resp, err = srvOff.Client().Get(srvOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable without the flag")
	}
}
