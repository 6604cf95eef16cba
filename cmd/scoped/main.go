// Command scoped is the multi-tenant query service: one long-running
// process serving the builtin micro dataset, where every client's
// scripts run through a single shared cross-query session — so one
// tenant's scripts are answered from common subexpressions another
// tenant's scripts materialized.
//
// Usage:
//
//	scoped -addr 127.0.0.1:8421 -machines 8
//
// Clients POST script text to /run (tenant named by the
// X-Scope-Tenant header) and receive a JSON report: optimizer cost,
// cache hits/misses, admitted artifacts, quota rejections, and an
// FNV-64a digest per OUTPUT table. GET /metrics dumps the server's
// counter registry (global and per-tenant); GET /healthz is the
// liveness probe. SIGINT/SIGTERM drain in-flight runs before exit.
//
// Scheduling knobs: -window batches arrivals so scripts with
// overlapping uncovered subexpressions fold into one admission pass;
// -inflight bounds concurrent folded groups; -queue bounds waiting
// requests (beyond it clients get 429); -timeout cancels overlong
// runs; -tenant-quota caps each tenant's cache bytes.
//
// Self test:
//
//	scoped -selftest
//
// starts the server on a loopback listener, drives concurrent clients
// over the paper's S1–S4 scripts for several rounds, and verifies
// every response is bit-identical to a cold sequential run of the
// same script on an identical dataset, that warm rounds were served
// from the shared cache, and that the HTTP surface answers. Exits 0
// only if all checks pass.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/exec"
	"repro/internal/obs/eventlog"
	"repro/internal/serve"
	"repro/internal/share"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8421", "listen address")
	cluster := cliflags.ClusterFlags(flag.CommandLine, 8, runtime.GOMAXPROCS(0))
	window := flag.Duration("window", 10*time.Millisecond,
		"batching window: arrivals are collected this long, then overlapping scripts fold into one admission pass")
	inflight := flag.Int("inflight", 0, "max concurrently executing folded groups (0 = one per CPU)")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "max requests awaiting dispatch before 429")
	timeout := flag.Duration("timeout", 0, "per-request execution timeout (0 = none)")
	tenantQuota := flag.Int64("tenant-quota", 0, "per-tenant cache byte quota (0 = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 0, "shared result-cache capacity in bytes (0 = session default)")
	events := flag.String("events", "",
		"export the full query event log (JSONL) to this file on shutdown")
	eventCap := flag.Int("event-cap", 0,
		"flight-recorder ring capacity (0 = eventlog default)")
	analyze := flag.Bool("analyze", false,
		"run every request under EXPLAIN ANALYZE and record q-error in its event")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	selftest := flag.Bool("selftest", false,
		"start on a loopback listener, drive concurrent clients, verify results, and exit")
	flag.Parse()

	if err := cluster.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "scoped: %v\n", err)
		os.Exit(2)
	}

	w := bench.Small("scoped", "")
	cfg := serve.Config{
		Catalog:          w.Cat,
		FS:               w.FS,
		Machines:         cluster.Machines,
		Workers:          cluster.Workers,
		CacheBytes:       *cacheBytes,
		Window:           *window,
		MaxInFlight:      *inflight,
		QueueDepth:       *queue,
		Timeout:          *timeout,
		TenantCacheBytes: *tenantQuota,
		EventCap:         *eventCap,
		Analyze:          *analyze,
		Pprof:            *pprofFlag,
		// Failed requests dump the flight recorder to stderr so the
		// events leading up to a failure survive in the service log.
		FailureDump: os.Stderr,
	}
	if *events != "" {
		// The sink buffers the full history through the metered
		// FileStore; shutdown exports it to the host file.
		cfg.EventSinkPath = "/sys/events.jsonl"
	}
	srv, err := serve.New(cfg)
	exitOn(err)

	if *selftest {
		runSelftest(srv, cluster.Machines, cluster.Workers)
		return
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	exitOn(err)
	fmt.Printf("scoped: serving micro dataset on http://%s (%d machines, window %s)\n",
		ln.Addr(), cluster.Machines, *window)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("scoped: %v, draining\n", sig)
	case err := <-errc:
		exitOn(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	exitOn(srv.Shutdown(ctx))
	// Drained: no pins, no orphans, no artifact outside the cache.
	exitOn(srv.Session().Quiescent())
	if *events != "" {
		srv.FlushEvents()
		exitOn(os.WriteFile(*events, srv.EventLog().SinkJSONL(), 0o644))
		fmt.Printf("scoped: event log written to %s (%d events)\n", *events, srv.EventLog().Len())
	}
	fmt.Println("scoped: drained")
}

// selftestScripts are the paper's Fig. 6 micro scripts; all share the
// same aggregation subexpressions over the micro dataset, so
// concurrent clients exercise cross-tenant sharing.
var selftestScripts = []struct {
	name   string
	script string
}{
	{"s1", bench.ScriptS1},
	{"s2", bench.ScriptS2},
	{"s3", bench.ScriptS3},
	{"s4", bench.ScriptS4},
}

// runSelftest drives the server exactly as concurrent clients would
// and verifies shared-cache answers are bit-identical to cold
// sequential ones.
func runSelftest(srv *serve.Server, machines, workers int) {
	// Cold references: each script run with no cache over an
	// identically generated dataset (same generator, same seed).
	refs := make([]map[string]*exec.Table, len(selftestScripts))
	for i, sc := range selftestScripts {
		w := bench.Small("scoped-ref-"+sc.name, "")
		ref, err := share.RunCold(context.Background(), sc.script, share.Config{
			Catalog: w.Cat, FS: w.FS, Machines: machines, Workers: workers,
		})
		exitOn(err)
		refs[i] = ref.Outputs
	}

	const rounds = 3
	clients := rounds * len(selftestScripts)
	var wg sync.WaitGroup
	reports := make([]*share.RunReport, clients)
	errs := make([]error, clients)
	for r := 0; r < rounds; r++ {
		for i := range selftestScripts {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				reports[slot], errs[slot] = srv.Submit(context.Background(),
					"tenant-"+selftestScripts[i].name, selftestScripts[i].script)
			}(r*len(selftestScripts)+i, i)
		}
	}
	wg.Wait()

	hits := 0
	for slot, rep := range reports {
		if errs[slot] != nil {
			fail("client %d (%s): %v", slot, selftestScripts[slot%len(selftestScripts)].name, errs[slot])
		}
		i := slot % len(selftestScripts)
		if p, differ := exec.DiffOutputs(rep.Outputs, refs[i]); differ {
			fail("client %d output %q differs from cold sequential run", slot, p)
		}
		hits += rep.CacheHits
	}
	if hits == 0 {
		fail("no client was served from the shared cache")
	}

	// HTTP surface smoke over a real loopback listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	exitOn(err)
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	req, err := http.NewRequest(http.MethodPost, base+"/run", strings.NewReader(bench.ScriptS1))
	exitOn(err)
	req.Header.Set(serve.TenantHeader, "http-client")
	resp, err := http.DefaultClient.Do(req)
	exitOn(err)
	var rr serve.RunResponse
	exitOn(json.NewDecoder(resp.Body).Decode(&rr))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.CacheHits == 0 {
		fail("HTTP run: status %d, hits %d (want 200 with warm hits)", resp.StatusCode, rr.CacheHits)
	}
	hresp, err := http.Get(base + "/healthz")
	exitOn(err)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		fail("healthz: status %d", hresp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	exitOn(srv.Shutdown(ctx))
	// Drained: no pins, no orphans, no artifact outside the cache.
	exitOn(srv.Session().Quiescent())

	// The event log must hold exactly one event per submitted script
	// (the concurrent clients plus the HTTP smoke run), each with
	// output digests matching the cold sequential references.
	events := srv.EventLog().Events()
	if len(events) != clients+1 {
		fail("event log holds %d events, want %d (one per submitted script)", len(events), clients+1)
	}
	scriptIdx := map[string]int{}
	for i, sc := range selftestScripts {
		scriptIdx[eventlog.ScriptID(sc.script)] = i
	}
	for _, ev := range events {
		if ev.Error != "" {
			fail("event %s records an error: %s", ev.ID, ev.Error)
		}
		i, ok := scriptIdx[ev.Script]
		if !ok {
			fail("event %s names unknown script digest %s", ev.ID, ev.Script)
		}
		want := eventlog.HexOutputs(eventlog.Digests(refs[i]))
		if len(ev.Outputs) != len(want) {
			fail("event %s (%s): %d outputs, want %d", ev.ID, selftestScripts[i].name, len(ev.Outputs), len(want))
		}
		for j := range want {
			if ev.Outputs[j] != want[j] {
				fail("event %s (%s): output %d digest %+v, want %+v (event stream diverges from cold run)",
					ev.ID, selftestScripts[i].name, j, ev.Outputs[j], want[j])
			}
		}
	}

	snap := srv.Registry().Snapshot()
	fmt.Printf("selftest: %d concurrent clients bit-identical to sequential; warm hits=%d folded=%d batches=%d events=%d\n",
		clients, hits, snap.Counters["serve.folded"], snap.Counters["serve.batches"], len(events))
	fmt.Println("selftest ok")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scoped: selftest: "+format+"\n", args...)
	os.Exit(1)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoped:", err)
		os.Exit(1)
	}
}
