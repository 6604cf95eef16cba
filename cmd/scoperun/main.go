// Command scoperun optimizes a builtin workload and executes both the
// conventional and the CSE plan on the simulated shared-nothing
// cluster, reporting the metered work and wall-clock time of each plan
// and, on the CSE plan's line, whether its outputs equal the
// conventional plan's (correct=). The differential matrix (go test
// -run TestDifferential ./internal/exec/) checks both plans of every
// builtin against the reference interpreter.
//
// Usage:
//
//	scoperun -script s1 -machines 8 -workers 4
//
// -machines is the simulated cluster size (partition count) and
// -workers the real worker-pool width executing partition tasks;
// metered work and results are identical at every worker count.
// -membudget bounds each partition task's working set in bytes;
// operators past it spill through the metered FileStore.
//
// Observability:
//
//	scoperun -script s1 -trace out.json -analyze
//
// -trace writes every optimizer and executor span as Chrome
// trace_event JSON (open in chrome://tracing or Perfetto); the span
// tree is deterministic at any -workers width. -analyze reruns each
// plan in EXPLAIN ANALYZE mode and prints it annotated with estimated
// versus actual rows and bytes per node, flagging mis-estimations.
//
// Batch server mode:
//
//	scoperun -session examples/session
//
// runs every *.scope file in the directory (sorted) through one
// cross-query sharing session over the builtin micro dataset,
// reporting per-script cache hits, misses, admissions, and the bytes
// saved versus a cache-disabled run of the same script.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/share"
)

func main() {
	script := flag.String("script", "s1", "builtin workload: s1 s2 s3 s4 fig5 ls1 ls2")
	cluster := cliflags.ClusterFlags(flag.CommandLine, 8, runtime.GOMAXPROCS(0))
	memBudget := cliflags.MemBudget(flag.CommandLine)
	lintOut := cliflags.Lint(flag.CommandLine)
	traceOut := cliflags.Trace(flag.CommandLine)
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: print each executed plan annotated with estimated vs actual rows and bytes")
	sessionDir := flag.String("session", "", "batch mode: run every *.scope script in this directory through one shared-result session")
	flag.Parse()

	if err := cluster.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "scoperun: %v\n", err)
		os.Exit(2)
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}

	if *sessionDir != "" {
		runSession(*sessionDir, cluster.Machines, cluster.Workers, *memBudget, tracer)
		writeTrace(tracer, *traceOut)
		return
	}

	w, err := bench.BuiltinWorkload(*script)
	exitOn(err)

	cfg := bench.DefaultConfig()
	cfg.Tracer = tracer
	simCluster := cost.DefaultCluster()
	simCluster.Machines = cluster.Machines
	var conv map[string]*exec.Table // the conventional plan's outputs
	for _, cse := range []bool{false, true} {
		label := "conventional"
		if cse {
			label = "exploit-CSE "
		}
		res, err := bench.RunOne(w, cse, cfg)
		exitOn(err)
		if *lintOut {
			if len(res.Lint) == 0 {
				fmt.Printf("%s  lint: clean\n", label)
			}
			for _, d := range res.Lint {
				fmt.Printf("%s  lint: %s\n", label, d)
			}
		}
		start := time.Now()
		x, err := share.Execute(context.Background(), res.Plan, share.Config{
			FS: w.FS, Machines: cluster.Machines, Workers: cluster.Workers,
			MemBudget: *memBudget, Tracer: tracer, Analyze: *analyze,
		}, nil)
		wall := time.Since(start)
		exitOn(err)
		if conv == nil {
			conv = x.Outputs
		}
		m := x.Metrics
		fmt.Printf("%s  est.cost=%8.0f  disk=%8d  net=%8d  rows=%8d  exchanges=%d  spools=%d  sim=%6.2fs  wall=%9s",
			label, res.Cost, m.DiskBytesRead+m.DiskBytesWritten, m.NetBytes,
			m.RowsProcessed, m.Exchanges, m.SpoolMaterializations,
			m.SimulatedSeconds(simCluster), wall.Round(time.Microsecond))
		_, differ := exec.DiffOutputs(x.Outputs, conv)
		if cse {
			fmt.Printf("  correct=%v", !differ)
		}
		fmt.Println()
		if *analyze {
			fmt.Printf("\n== %s EXPLAIN ANALYZE ==\n%s\n", strings.TrimSpace(label), x.Analysis)
		}
		if differ {
			os.Exit(1)
		}
	}
	writeTrace(tracer, *traceOut)

	fmt.Println("\noutputs:")
	var paths []string
	for p := range conv {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Printf("  %s: %d rows, schema %v\n", p, len(conv[p].Rows), conv[p].Schema.Names())
	}
}

// writeTrace exports the collected spans as Chrome trace_event JSON.
// No-op when tracing is off.
func writeTrace(tr *obs.Tracer, path string) {
	if tr == nil || path == "" {
		return
	}
	exitOn(tr.WriteFile(path))
	fmt.Printf("trace written to %s (%d spans)\n", path, tr.Len())
}

// runSession is the batch server mode: every *.scope script in dir,
// in sorted order, runs through one share.Session over the builtin
// micro dataset (test.log / test2.log), so later scripts can serve
// common subexpressions from earlier scripts' admitted results. Each
// script is also executed cache-disabled against an identical cold
// dataset; the difference in metered disk+net bytes is what sharing
// saved, and the outputs of the two runs must agree bit for bit.
func runSession(dir string, machines, workers int, memBudget int64, tracer *obs.Tracer) {
	entries, err := os.ReadDir(dir)
	exitOn(err)
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".scope") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "scoperun: no .scope scripts in %s\n", dir)
		os.Exit(1)
	}

	// Same generator, same seed: the warm and cold datasets are
	// identical, but the cold side never sees the session cache.
	warm := bench.Small("session", "")
	cold := bench.Small("session-cold", "")
	reg := obs.NewRegistry()
	sess, err := share.NewSession(share.Config{
		Catalog: warm.Cat, FS: warm.FS, Machines: machines, Workers: workers,
		MemBudget: memBudget,
		Tracer:    tracer, Obs: reg,
	})
	exitOn(err)

	fmt.Printf("session: %d scripts from %s on %d machines\n\n", len(names), dir, machines)
	var warmBytes, coldBytes int64
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		exitOn(err)
		rep, err := sess.Run(string(src))
		exitOn(err)

		want, err := share.RunCold(context.Background(), string(src), share.Config{
			Catalog: cold.Cat, FS: cold.FS, Machines: machines, Workers: workers, MemBudget: memBudget,
		})
		exitOn(err)
		_, differ := exec.DiffOutputs(rep.Outputs, want.Outputs)
		cm := want.Metrics
		wb := rep.Metrics.DiskBytesRead + rep.Metrics.NetBytes
		cb := cm.DiskBytesRead + cm.NetBytes
		warmBytes += wb
		coldBytes += cb
		fmt.Printf("%-22s hits=%d  misses=%d  admitted=%d  cacheRead=%8d  savedBytes=%8d  correct=%v\n",
			name, rep.CacheHits, rep.CacheMisses, rep.Admitted,
			rep.Metrics.CacheBytesRead, cb-wb, !differ)
		if differ {
			os.Exit(1)
		}
	}
	fmt.Printf("\nsession metrics:\n%s", reg.Snapshot())
	fmt.Printf("total: warm disk+net=%d  cold disk+net=%d  saved=%d\n",
		warmBytes, coldBytes, coldBytes-warmBytes)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoperun:", err)
		os.Exit(1)
	}
}
