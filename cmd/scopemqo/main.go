// Command scopemqo is the workload-level multi-query optimizer CLI:
// it compiles every *.scope script in a directory into one merged
// AND-OR DAG, chooses a global materialization set under a storage
// budget, and (by default) enacts the choice through a shared-result
// session — verifying every script's output stays bit-identical to an
// independent cold run.
//
// Usage:
//
//	scopemqo -session examples/session -budget 0
//
// Flags:
//
//	-session  directory of *.scope scripts forming the workload batch
//	-budget   storage budget in estimated artifact bytes (0 = unlimited)
//	-mode     selection algorithm: global (greedy guarded by the
//	          per-script baseline), greedy, per-script, exhaustive
//	-enact    run the batch through a live session and verify outputs
//	          bit-identical to independent cold runs (default true)
//
// The tool prints the merged DAG's sharing candidates, the chosen set
// with its estimated workload cost against the nothing-materialized
// base, and — when enacting — per-script cache traffic. It exits
// nonzero on any output mismatch and prints "mqo ok" on success (the
// marker check.sh greps for).
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

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/exec"
	"repro/internal/mqo"
	"repro/internal/share"
)

func main() {
	dir := flag.String("session", "examples/session", "directory of *.scope scripts forming the workload batch")
	budget := flag.Int64("budget", 0, "storage budget in estimated artifact bytes (0 = unlimited)")
	mode := flag.String("mode", "global", "selection algorithm: global, greedy, per-script, exhaustive")
	enact := flag.Bool("enact", true, "enact the selection through a session and verify bit-identical outputs")
	cluster := cliflags.ClusterFlags(flag.CommandLine, 8, runtime.GOMAXPROCS(0))
	flag.Parse()
	exitOn(cluster.Validate())

	scripts := loadScripts(*dir)
	env := bench.Small("mqo", "")
	dag, err := mqo.BuildDAG(scripts, env.Cat)
	exitOn(err)

	sess, err := share.NewSession(share.Config{
		Catalog: env.Cat, FS: env.FS,
		Machines: cluster.Machines, Workers: cluster.Workers,
	})
	exitOn(err)
	ev := mqo.NewEvaluator(dag, sess.Options())
	cfg := mqo.Config{Budget: *budget}

	fmt.Printf("workload: %d scripts, %d merged groups, %d sharing candidates\n",
		len(dag.Scripts), len(dag.Groups), len(dag.Candidates))
	for _, g := range dag.Candidates {
		fmt.Printf("  candidate %016x %-10s scripts=%v  ~%d bytes\n",
			g.Key.FP, g.Kind, g.Scripts, g.Bytes())
	}

	var sel *mqo.Selection
	switch *mode {
	case "global":
		sel, err = mqo.Select(ev, cfg)
	case "greedy":
		sel, err = mqo.SelectGreedy(ev, cfg)
	case "per-script":
		sel, err = mqo.SelectPerScript(ev, cfg)
	case "exhaustive":
		sel, err = mqo.SelectExhaustive(ev, cfg)
	default:
		exitOn(fmt.Errorf("unknown -mode %q", *mode))
	}
	exitOn(err)

	fmt.Printf("\nselection (%s): %d of %d candidates, budget=%d\n",
		sel.Method, len(sel.Keys), len(dag.Candidates), sel.Budget)
	for _, g := range sel.Chosen {
		fmt.Printf("  chosen %016x %-10s builder=%s readers=%d\n",
			g.Key.FP, g.Kind, dag.Scripts[g.Builder()].Name, len(g.Scripts)-1)
	}
	fmt.Printf("estimated cost: base=%.0f chosen=%.0f saved=%.0f bytes=%d evals=%d\n",
		sel.Base, sel.Total, sel.Base-sel.Total, sel.Bytes, sel.Evals)

	if !*enact {
		fmt.Println("mqo ok")
		return
	}

	reps, err := mqo.Enact(context.Background(), sess, dag, sel, share.RunOpts{Tenant: "batch"})
	exitOn(err)
	fmt.Println()
	for i, rep := range reps {
		fmt.Printf("%-22s hits=%d  misses=%d  admitted=%d  cacheRead=%d\n",
			dag.Scripts[i].Name, rep.CacheHits, rep.CacheMisses,
			rep.Admitted, rep.Metrics.CacheBytesRead)
		verifyCold(dag.Scripts[i], rep, cluster.Machines, cluster.Workers)
	}
	fmt.Printf("mqo artifacts: %d bytes owned by %q\n",
		sess.Cache().OwnerBytes(share.MQOOwner), share.MQOOwner)
	fmt.Println("mqo ok")
}

// loadScripts reads every *.scope file in dir, sorted by name.
func loadScripts(dir string) []mqo.Script {
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
		exitOn(fmt.Errorf("no .scope scripts in %s", dir))
	}
	scripts := make([]mqo.Script, len(names))
	for i, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		exitOn(err)
		scripts[i] = mqo.Script{Name: name, Src: string(src)}
	}
	return scripts
}

// verifyCold re-runs one script cache-disabled against an identical
// cold dataset and exits nonzero unless the enacted outputs match bit
// for bit.
func verifyCold(sc mqo.Script, rep *share.RunReport, machines, workers int) {
	cold := bench.Small("mqo-cold", "")
	want, err := share.RunCold(context.Background(), sc.Src, share.Config{
		Catalog: cold.Cat, FS: cold.FS, Machines: machines, Workers: workers,
	})
	exitOn(err)
	if p, differ := exec.DiffOutputs(rep.Outputs, want.Outputs); differ {
		exitOn(fmt.Errorf("%s: output %q differs from the independent cold run", sc.Name, p))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scopemqo:", err)
		os.Exit(1)
	}
}
