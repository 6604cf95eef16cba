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
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/serve"
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

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoped:", err)
		os.Exit(1)
	}
}
