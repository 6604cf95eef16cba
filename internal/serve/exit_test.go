package serve

import (
	"context"
	"strings"
	"testing"
	"time"
)

// scriptAFails is scriptA with a consumer that divides by zero, so the
// run fails after its shared aggregation was spooled and persisted.
const scriptAFails = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
R5 = SELECT B,C,S2/(B-B) as Z FROM R2;
OUTPUT R1 TO "a1.out" ORDER BY A, B;
OUTPUT R5 TO "a2.out" ORDER BY B, C;
`

// assertQuiescent holds the server's session to its at-rest
// invariants once every request has returned: no pins, no orphans,
// every __cache/ file owned by an entry, owner bytes summing to the
// cache total.
func assertQuiescent(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Session().Quiescent(); err != nil {
		t.Error(err)
	}
}

// panicCtx panics when the executor arms cancellation on it — after
// the optimizer has planned (and pinned) its cache hits.
type panicCtx struct{ context.Context }

func (panicCtx) Done() <-chan struct{} { panic("boom") }

// TestServePanicRecovered: a panic under a request becomes that
// request's error and event; the run's pins are gone and the next
// request is served from the same artifacts.
func TestServePanicRecovered(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(context.Background(), "alice", scriptA); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Submit(panicCtx{context.Background()}, "bob", scriptB)
	if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	if rep == nil || rep.Err != err || rep.Tenant != "bob" {
		t.Errorf("panicked request's record = %+v", rep)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["serve.panics"] != 1 || snap.Counters["serve.errors"] != 1 {
		t.Errorf("serve.panics=%d serve.errors=%d, want 1 and 1", snap.Counters["serve.panics"], snap.Counters["serve.errors"])
	}
	events := s.EventLog().Events()
	if len(events) != 2 || events[1].Error == "" || events[1].Tenant != "bob" {
		t.Fatalf("events after the panic: %+v", events)
	}
	assertQuiescent(t, s)
	next, err := s.Submit(context.Background(), "bob", scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if next.CacheHits == 0 {
		t.Error("request after the panic was not served from the cache")
	}
	assertQuiescent(t, s)
}

// TestServeFailedRunLeavesNoArtifact: a request that fails after its
// admitted spool was persisted leaves no file outside the cache, and
// its event carries the counters of the work it did.
func TestServeFailedRunLeavesNoArtifact(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(context.Background(), "alice", scriptAFails); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want a division by zero", err)
	}
	assertQuiescent(t, s)
	if st := s.Session().CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("failed request changed the cache: %+v", st)
	}
	ev := s.EventLog().Events()[0]
	if ev.Error == "" || ev.CacheMisses == 0 || ev.Admitted != 0 || len(ev.Outputs) != 0 {
		t.Errorf("failed request's event = %+v", ev)
	}
	alice, err := s.Submit(context.Background(), "alice", scriptA)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := s.Submit(context.Background(), "bob", scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if alice.Admitted == 0 || bob.CacheHits == 0 {
		t.Errorf("after the failure: alice admitted %d, bob hit %d", alice.Admitted, bob.CacheHits)
	}
	assertQuiescent(t, s)
}

// TestServeQueueClock: queue_us covers submission to the start of the
// run — at least the batching window for a lone request — and with
// latency_us stays inside the wall time the caller observed.
func TestServeQueueClock(t *testing.T) {
	const window = 20 * time.Millisecond
	s := newTestServer(t, Config{Window: window})
	begin := time.Now()
	if _, err := s.Submit(context.Background(), "alice", scriptA); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(begin).Microseconds()
	ev := s.EventLog().Events()[0]
	if ev.QueueUs < window.Microseconds() {
		t.Errorf("queue_us = %d, want at least the %v window", ev.QueueUs, window)
	}
	if ev.LatencyUs <= 0 || ev.QueueUs+ev.LatencyUs > wall {
		t.Errorf("queue_us %d + latency_us %d exceeds the caller's %d µs", ev.QueueUs, ev.LatencyUs, wall)
	}
	if h := s.Registry().Snapshot().Hists["serve.queue_us"]; h.Count != 1 || h.Sum != ev.QueueUs {
		t.Errorf("serve.queue_us = %+v, want the event's one observation of %d", h, ev.QueueUs)
	}
}
