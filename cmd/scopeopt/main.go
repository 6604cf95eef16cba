// Command scopeopt optimizes a SCOPE script with and without the
// common-subexpression framework and prints the plans and estimated
// costs.
//
// Usage:
//
//	scopeopt -script s1            # one of: s1 s2 s3 s4 fig5 ls1 ls2
//	scopeopt -file my.scope        # a script file (uses default stats)
//	scopeopt -script s1 -dot       # emit Graphviz instead of trees
//	scopeopt -script s1 -trace out.json   # Chrome trace of the optimization
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/stats"
)

func main() {
	script := flag.String("script", "s1", "builtin workload: s1 s2 s3 s4 fig5 ls1 ls2")
	file := flag.String("file", "", "optimize a script file instead of a builtin")
	dot := flag.Bool("dot", false, "emit Graphviz dot instead of plan trees")
	cseOnly := flag.Bool("cse-only", false, "skip the conventional baseline")
	showRounds := flag.Bool("rounds", false, "trace every phase-2 re-optimization round")
	jsonOut := flag.String("json", "", "also write the CSE plan as JSON to this file")
	lintOut := cliflags.Lint(flag.CommandLine)
	traceOut := cliflags.Trace(flag.CommandLine)
	flag.Parse()

	w, err := workload(*script, *file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scopeopt:", err)
		os.Exit(1)
	}
	cfg := bench.DefaultConfig()
	if *traceOut != "" {
		cfg.Tracer = obs.NewTracer()
	}

	if !*cseOnly {
		conv, err := bench.RunOne(w, false, cfg)
		exitOn(err)
		showLint(*lintOut, conv)
		show("conventional optimization (no CSE)", conv, *dot)
	}
	cse, err := bench.RunOne(w, true, cfg)
	exitOn(err)
	showLint(*lintOut, cse)
	show("exploiting common subexpressions", cse, *dot)
	fmt.Printf("stats (duration=%v):\n%s", cse.Duration, cse.Stats)
	if *traceOut != "" {
		exitOn(cfg.Tracer.WriteFile(*traceOut))
		fmt.Printf("trace written to %s (%d spans)\n", *traceOut, cfg.Tracer.Len())
	}
	if *jsonOut != "" {
		data, err := plan.MarshalPlan(cse.Plan)
		exitOn(err)
		exitOn(os.WriteFile(*jsonOut, data, 0o644))
		fmt.Printf("plan written to %s (%d bytes)\n", *jsonOut, len(data))
	}
	if *showRounds {
		fmt.Println("\nphase-2 rounds (pins enforced at shared groups → DAG cost):")
		for i, r := range cse.Rounds {
			mark := " "
			switch {
			case r.Best:
				mark = "*"
			case r.Pruned:
				mark = "x" // aborted by the branch-and-bound cost bound
			case r.Fallback:
				mark = "!"
			}
			fmt.Printf("%s round %3d @G%-4d %-40s cost=%.0f\n", mark, i+1, r.LCA, r.Pins, r.Cost)
		}
	}
}

func workload(name, file string) (*datagen.Workload, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return &datagen.Workload{Name: file, Script: string(src), Cat: stats.NewCatalog()}, nil
	}
	return bench.BuiltinWorkload(name)
}

func show(title string, res *opt.Result, dot bool) {
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("estimated cost: %.0f (phase 1: %.0f)\n", res.Cost, res.Phase1Cost)
	if dot {
		fmt.Println(plan.DOT(res.Plan, title))
	} else {
		fmt.Println(plan.Format(res.Plan))
	}
}

// showLint prints the plan's static-analysis findings (gathered by
// the bench harness's lint oracle) when -lint is set. The harness has
// already refused plans with error-severity findings, so anything
// shown here is advisory.
func showLint(enabled bool, res *opt.Result) {
	if !enabled {
		return
	}
	if len(res.Lint) == 0 {
		fmt.Println("lint: clean")
		return
	}
	for _, d := range res.Lint {
		fmt.Printf("lint: %s\n", d)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scopeopt:", err)
		os.Exit(1)
	}
}
