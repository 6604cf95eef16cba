package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/share"
	"repro/internal/stats"
)

// The workload: three scripts sharing one aggregation subexpression
// over test.log, each with a distinct consumer set and output.
const (
	scriptA = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "a1.out" ORDER BY A, B;
OUTPUT R2 TO "a2.out" ORDER BY B, C;
`
	scriptB = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R3 = SELECT A,C,Sum(S) as S3 FROM R GROUP BY A,C;
OUTPUT R3 TO "b3.out" ORDER BY A, C;
`
	scriptC = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R4 = SELECT B,Sum(S) as S4 FROM R GROUP BY B;
OUTPUT R4 TO "c4.out" ORDER BY B;
`
)

func testEnv(t *testing.T) (*stats.Catalog, *exec.FileStore) {
	t.Helper()
	cat := stats.NewCatalog()
	cat.Put("test.log", &stats.TableStats{Rows: 2_000_000_000, Columns: map[string]stats.ColumnStats{
		"A": {Distinct: 100, AvgBytes: 8},
		"B": {Distinct: 50, AvgBytes: 8},
		"C": {Distinct: 200, AvgBytes: 8},
		"D": {Distinct: 1 << 40, AvgBytes: 8},
	}})
	fs := exec.NewFileStore()
	schema := relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt},
		{Name: "C", Type: relop.TInt}, {Name: "D", Type: relop.TInt},
	}
	tab := &exec.Table{Schema: schema}
	for i := int64(0); i < 400; i++ {
		tab.Rows = append(tab.Rows, relop.Row{
			relop.IntVal(i % 7), relop.IntVal(i % 5),
			relop.IntVal(i % 11), relop.IntVal(i * 13),
		})
	}
	fs.Put("test.log", tab)
	return cat, fs
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog, cfg.FS = testEnv(t)
	}
	if cfg.Machines == 0 {
		cfg.Machines = 8
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameRows(t *testing.T, label string, got, want *exec.Table) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing table (got=%v want=%v)", label, got != nil, want != nil)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got.Rows[i], want.Rows[i])
		}
	}
}

// coldRefs runs each script cold in its own fresh session and returns
// the reference outputs — the bit-identity baseline for everything the
// server produces.
func coldRefs(t *testing.T, scripts []struct{ src, out string }) []*exec.Table {
	t.Helper()
	refs := make([]*exec.Table, len(scripts))
	for i, sc := range scripts {
		cat, fs := testEnv(t)
		sess, err := share.NewSession(share.Config{Catalog: cat, FS: fs, Machines: 8, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run(sc.src)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = rep.Outputs[sc.out]
	}
	return refs
}

// TestServeConcurrentClients is the tentpole e2e: many concurrent
// clients (distinct tenants) hammer one server through the batching
// scheduler, and every single response is bit-identical to a cold
// sequential run of the same script — while the warm rounds are
// served from subexpressions other clients materialized. The check.sh
// serve race leg runs this under -race.
func TestServeConcurrentClients(t *testing.T) {
	scripts := []struct{ src, out string }{
		{scriptA, "a1.out"},
		{scriptB, "b3.out"},
		{scriptC, "c4.out"},
	}
	refs := coldRefs(t, scripts)

	s := newTestServer(t, Config{
		Workers:     2,
		Window:      5 * time.Millisecond,
		MaxInFlight: 4,
	})

	const rounds = 4
	clients := rounds * len(scripts)
	var wg sync.WaitGroup
	reports := make([]*share.RunReport, clients)
	errs := make([]error, clients)
	for r := 0; r < rounds; r++ {
		for i := range scripts {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				reports[slot], errs[slot] = s.Submit(context.Background(),
					fmt.Sprintf("tenant-%d", i), scripts[i].src)
			}(r*len(scripts)+i, i)
		}
	}
	wg.Wait()

	hits, misses := 0, 0
	for slot, rep := range reports {
		if errs[slot] != nil {
			t.Fatalf("client %d: %v", slot, errs[slot])
		}
		i := slot % len(scripts)
		sameRows(t, fmt.Sprintf("client %d %s", slot, scripts[i].out),
			rep.Outputs[scripts[i].out], refs[i])
		hits += rep.CacheHits
		misses += rep.CacheMisses
	}
	if hits == 0 {
		t.Error("no client was served from another client's subexpressions")
	}
	// All three scripts share one aggregation. Folding builds it once;
	// arrivals that straddle a batching window may each build it again,
	// but cold work must never repeat per client.
	if misses > len(scripts) {
		t.Errorf("%d clients missed %d times — the shared subexpression was rebuilt per client", clients, misses)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve.requests"]; got != int64(clients) {
		t.Errorf("served %d requests, want %d", got, clients)
	}
	if snap.Counters["exec.batches"] == 0 {
		t.Error("default-configured server processed no columnar batches")
	}
	assertQuiescent(t, s)
}

// TestServeCrossTenantSharing pins down the cross-client direction:
// tenant alice materializes the shared aggregation, tenant bob's
// different script is then served from it — bob hits without ever
// having admitted anything.
func TestServeCrossTenantSharing(t *testing.T) {
	s := newTestServer(t, Config{})
	alice, err := s.Submit(context.Background(), "alice", scriptA)
	if err != nil {
		t.Fatal(err)
	}
	if alice.Admitted == 0 {
		t.Fatalf("alice admitted nothing: %+v", alice)
	}
	bob, err := s.Submit(context.Background(), "bob", scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if bob.CacheHits == 0 {
		t.Fatalf("bob not served from alice's artifacts: %+v", bob)
	}
	if got := s.Session().Cache().OwnerBytes("bob"); got != 0 {
		t.Errorf("bob charged %d bytes for alice's artifacts", got)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["serve.tenant.bob.cache_hits"] == 0 {
		t.Error("bob's hits not published to his tenant counters")
	}
	if snap.Gauges["serve.tenant.alice.cache_bytes"] != alice.AdmittedBytes {
		t.Errorf("alice's cache_bytes gauge %d, admitted %d",
			snap.Gauges["serve.tenant.alice.cache_bytes"], alice.AdmittedBytes)
	}
}

// TestFoldGroups: cold scripts sharing an uncovered subexpression fold
// into one group (in arrival order); once the cache covers the shared
// fingerprints, the same scripts schedule concurrently.
func TestFoldGroups(t *testing.T) {
	cat, fs := testEnv(t)
	sess, err := share.NewSession(share.Config{Catalog: cat, FS: fs, Machines: 8})
	if err != nil {
		t.Fatal(err)
	}
	mkReq := func(src string) *request {
		c, err := sess.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		return &request{compiled: c}
	}
	a, b, c := mkReq(scriptA), mkReq(scriptB), mkReq(scriptC)
	if len(a.compiled.Subexprs) == 0 {
		t.Fatal("script A fingerprinted to nothing")
	}

	cold := foldGroups([]*request{a, b, c}, sess.Cache())
	if len(cold) != 1 || len(cold[0]) != 3 {
		t.Fatalf("cold overlapping batch folded into %d groups, want 1 of 3", len(cold))
	}
	if cold[0][0] != a || cold[0][1] != b || cold[0][2] != c {
		t.Error("folded group does not preserve arrival order")
	}

	// Warm the cache: the shared aggregation is now covered, so the
	// same batch has nothing uncovered in common and stays unfolded.
	if _, err := sess.Run(scriptA); err != nil {
		t.Fatal(err)
	}
	warm := foldGroups([]*request{a, b, c}, sess.Cache())
	if len(warm) != 3 {
		t.Fatalf("warm batch folded into %d groups, want 3 concurrent", len(warm))
	}
}

// TestServeBackpressure: a full dispatch queue rejects fast with
// ErrOverloaded instead of queueing without bound.
func TestServeBackpressure(t *testing.T) {
	s := newTestServer(t, Config{
		Window:     time.Hour, // nothing dispatches until Shutdown
		QueueDepth: 1,
	})
	first := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "t0", scriptA)
		first <- err
	}()
	// Wait until the first request occupies the queue.
	for {
		s.mu.Lock()
		n := len(s.pending)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(context.Background(), "t1", scriptB); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue submit returned %v, want ErrOverloaded", err)
	}
	// Shutdown dispatches the held batch; the queued client completes.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatalf("queued request failed after drain: %v", err)
	}
	if _, err := s.Submit(context.Background(), "t2", scriptC); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown submit returned %v, want ErrShutdown", err)
	}
}

// TestServeTimeout: the per-request timeout propagates through the
// session's context path and surfaces as a deadline error.
func TestServeTimeout(t *testing.T) {
	s := newTestServer(t, Config{Timeout: time.Nanosecond})
	if _, err := s.Submit(context.Background(), "t0", scriptA); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want DeadlineExceeded", err)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["serve.errors"] == 0 || snap.Counters["serve.tenant.t0.errors"] == 0 {
		t.Error("timeout not counted as a serve error")
	}
	assertQuiescent(t, s)
}

// TestServeParseError: an uncompilable script is the client's fault
// and never reaches the scheduler.
func TestServeParseError(t *testing.T) {
	s := newTestServer(t, Config{})
	_, err := s.Submit(context.Background(), "t0", "NOT A SCRIPT ;;;")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("garbage script returned %v, want ParseError", err)
	}
	if got := s.Registry().Snapshot().Counters["serve.requests"]; got != 0 {
		t.Errorf("parse failure reached the scheduler: %d requests", got)
	}
}

// TestServeShutdownDrains: Shutdown completes in-flight work before
// returning, and an expired drain deadline is reported.
func TestServeShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{Window: 50 * time.Millisecond})
	var wg sync.WaitGroup
	results := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = s.Submit(context.Background(), "t0", scriptA)
		}(i)
	}
	// Let the submissions enqueue, then shut down before the window
	// fires: Shutdown must flush and drain them.
	for {
		s.mu.Lock()
		n := len(s.pending)
		s.mu.Unlock()
		if n == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Errorf("in-flight request %d dropped by shutdown: %v", i, err)
		}
	}
}

// BenchmarkFoldGroups folds an 8-request batch of LS1-shaped scripts
// (about a hundred operators each, the benchmark's plan-heavy size)
// against caches of 10 and 1,000 unrelated entries. Each probe is a
// map lookup, so ns/op must not grow with the entry count.
func BenchmarkFoldGroups(b *testing.B) {
	fans := [][]int{{2, 2, 2, 3}, {3, 2, 2, 2}, {2, 3, 2, 2}, {2, 2, 3, 2}}
	cat, fs := stats.NewCatalog(), exec.NewFileStore()
	var scripts []string
	for _, f := range fans {
		sh := datagen.LS1Shape()
		sh.SharedFanouts, sh.PhysRows = f, 500
		w := datagen.LargeScript(sh)
		for _, p := range w.FS.Paths() {
			t, _ := w.FS.Get(p)
			fs.Put(p, t)
			cat.Put(p, w.Cat.Table(p))
		}
		scripts = append(scripts, w.Script)
	}
	for _, n := range []int{10, 1000} {
		sess, err := share.NewSession(share.Config{Catalog: cat, FS: fs, Machines: 8, CacheBytes: 1 << 40})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			a := opt.Artifact{Spool: &plan.Node{Children: []*plan.Node{{}}},
				ID: share.Subexpr{FP: uint64(i), Sig: uint64(i) * 0x9e3779b97f4a7c15}, Sig: fmt.Sprint(i)}
			sess.Cache().Put(a, fmt.Sprintf("__cache/f%d", i), 8, nil, "")
		}
		batch := make([]*request, 8)
		for i := range batch {
			c, err := sess.Compile(scripts[i%len(scripts)])
			if err != nil {
				b.Fatal(err)
			}
			batch[i] = &request{compiled: c}
		}
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range batch {
					clear(r.covered)
				}
				if g := foldGroups(batch, sess.Cache()); len(g) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}
