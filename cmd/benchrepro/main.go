// Command benchrepro regenerates the paper's evaluation artifacts:
//
//	benchrepro -fig 7        Fig. 7 estimated-cost comparison table
//	benchrepro -fig 8        Fig. 8 plan trees for S1
//	benchrepro -fig rounds     Sec. VIII-A round-count reduction
//	benchrepro -fig budget     Sec. VIII-B/C ranking under a budget
//	benchrepro -fig baselines  conventional vs local-sharing vs cost-based
//	benchrepro -fig opt        optimizer wall-clock + round-engine counters (BENCH_opt.json)
//	benchrepro -fig analyze    estimated vs actual row accuracy (EXPLAIN ANALYZE sweep)
//	benchrepro -fig mqo        workload-level MQO ablation: per-script greedy vs global selection (BENCH_mqo.json)
//	benchrepro -fig all        everything
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cliflags"
)

func main() {
	fig := flag.String("fig", "all", "which artifact: 7, 8, rounds, budget, baselines, opt, analyze, mqo, all")
	machines := cliflags.Machines(flag.CommandLine, 5)
	memBudget := cliflags.MemBudget(flag.CommandLine)
	out := flag.String("out", "BENCH_opt.json", "output path for the -fig opt artifact")
	iters := flag.Int("iters", 3, "optimize iterations per configuration for -fig opt (fastest wins)")
	mqoOut := flag.String("mqoout", "BENCH_mqo.json", "output path for the -fig mqo artifact")
	flag.Parse()
	cfg := bench.DefaultConfig()
	// -membudget bounds the one figure that executes plans (analyze).
	cfg.MemBudget = *memBudget

	run := map[string]func() error{
		"7": func() error {
			rows, err := bench.Fig7(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Fig. 7 — estimated plan cost, conventional vs exploiting CSEs")
			fmt.Println("(paper column = savings reported in the paper)")
			fmt.Print(bench.FormatFig7(rows))
			return nil
		},
		"8": func() error {
			conv, cse, err := bench.Fig8(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Fig. 8(a) — S1, conventional optimization:")
			fmt.Println(conv)
			fmt.Println("Fig. 8(b) — S1, exploiting common subexpressions:")
			fmt.Println(cse)
			return nil
		},
		"rounds": func() error {
			rows, err := bench.RoundsFig5(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Sec. VIII-A — rounds at the shared LCA of the Fig. 5 script")
			fmt.Print(bench.FormatRounds(rows))
			return nil
		},
		"baselines": func() error {
			rows, err := bench.Baselines(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Related-work comparison — no sharing vs local-optimal sharing [10,11,12] vs cost-based (this paper)")
			fmt.Print(bench.FormatBaselines(rows))
			return nil
		},
		"budget": func() error {
			rows, err := bench.RankingUnderBudget(bench.Small("Ranking", bench.ScriptRanking),
				[]int{1, 2, 4, 1024}, cfg)
			if err != nil {
				return err
			}
			fmt.Println("Sec. VIII-B/C — ranked vs recording-order rounds under a budget")
			fmt.Print(bench.FormatBudget(rows))
			return nil
		},
		"analyze": func() error {
			rows, snap, err := bench.Accuracy(*machines, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("EXPLAIN ANALYZE — estimated vs actual rows per plan node, %d machines\n", *machines)
			fmt.Print(bench.FormatAccuracy(rows))
			fmt.Printf("\naggregate metrics over the analyzed runs:\n%s", snap)
			return nil
		},
		"opt": func() error {
			rep, err := bench.OptTimings(*iters, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("Optimizer — round-engine counters and wall clock, best of %d iters\n", *iters)
			fmt.Print(bench.FormatOpt(rep))
			if err := bench.WriteOptJSON(rep, *out); err != nil {
				return err
			}
			if err := bench.ValidateOptJSON(*out); err != nil {
				return err
			}
			fmt.Printf("%s: schema ok (%d rows)\n", *out, len(rep.Rows))
			return nil
		},
		"mqo": func() error {
			rep, err := bench.MQOBench(*machines, 0)
			if err != nil {
				return err
			}
			fmt.Printf("MQO ablation — per-script greedy vs global workload selection, %d machines\n", *machines)
			fmt.Print(bench.FormatMQO(rep))
			if err := bench.WriteMQOJSON(rep, *mqoOut); err != nil {
				return err
			}
			if err := bench.ValidateMQOJSON(*mqoOut); err != nil {
				return err
			}
			fmt.Printf("%s: schema ok (%d rows)\n", *mqoOut, len(rep.Rows))
			return nil
		},
	}

	var order []string
	if *fig == "all" {
		order = []string{"7", "8", "rounds", "budget", "baselines", "opt", "analyze", "mqo"}
	} else {
		order = []string{*fig}
	}
	for i, f := range order {
		fn, ok := run[f]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchrepro: unknown figure %q\n", f)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println()
		}
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "benchrepro:", err)
			os.Exit(1)
		}
	}
}
