// Package repro_test holds the top-level benchmark harness: one
// benchmark per table/figure of the paper's evaluation (Sec. IX).
// Estimated plan costs and savings are attached to each benchmark as
// custom metrics, so `go test -bench=. -benchmem` regenerates the
// numbers behind Fig. 7, Fig. 8, and the Sec. VIII round-count
// results alongside the optimizer's own running time.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/share"
)

// BenchmarkFig7 regenerates the paper's Fig. 7: for every evaluation
// script, the estimated cost under conventional optimization and
// under the CSE framework. Metrics: est_cost (plan cost in calibrated
// units), saving_pct for the CSE variants; ns/op is optimization
// time.
func BenchmarkFig7(b *testing.B) {
	cfg := bench.DefaultConfig()
	for _, w := range bench.Fig7Workloads() {
		w := w
		var convCost float64
		b.Run(w.Name+"_Conventional", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunOne(w, false, cfg)
				if err != nil {
					b.Fatal(err)
				}
				convCost = res.Cost
			}
			b.ReportMetric(convCost, "est_cost")
		})
		b.Run(w.Name+"_ExploitCSE", func(b *testing.B) {
			var cost float64
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := bench.RunOne(w, true, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(cost, "est_cost")
			if convCost > 0 {
				b.ReportMetric((1-cost/convCost)*100, "saving_pct")
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkFig8 regenerates the Fig. 8 plan pair for S1 (plan
// extraction end to end); the est_cost metrics mirror the figure's
// two bars.
func BenchmarkFig8(b *testing.B) {
	cfg := bench.DefaultConfig()
	var conv, cse string
	for i := 0; i < b.N; i++ {
		var err error
		conv, cse, err = bench.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(conv)), "conv_plan_bytes")
	b.ReportMetric(float64(len(cse)), "cse_plan_bytes")
}

// BenchmarkRoundsFig5 regenerates the Sec. VIII-A round reduction on
// the Fig. 5 script: rounds evaluated with the independent-shared-
// groups extension versus the full cartesian product.
func BenchmarkRoundsFig5(b *testing.B) {
	cfg := bench.DefaultConfig()
	for _, ablate := range []struct {
		name    string
		disable bool
	}{{"Independent", false}, {"Cartesian", true}} {
		ablate := ablate
		b.Run(ablate.name, func(b *testing.B) {
			c := cfg
			c.DisableIndependence = ablate.disable
			c.MaxRoundsPerLCA = 1 << 20
			w := bench.Small("Fig5", bench.ScriptFig5)
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := bench.RunOne(w, true, c)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkRankingBudget regenerates the Sec. VIII-B/C effect: plan
// cost reached within a single re-optimization round with ranked
// versus recording-order round generation.
func BenchmarkRankingBudget(b *testing.B) {
	cfg := bench.DefaultConfig()
	for _, v := range []struct {
		name    string
		disable bool
	}{{"Ranked", false}, {"Unranked", true}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			c := cfg
			c.DisableRanking = v.disable
			c.MaxRoundsPerLCA = 1
			c.UsePaperBudgets = false
			w := bench.Small("Ranking", bench.ScriptRanking)
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunOne(w, true, c)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "est_cost_at_1_round")
		})
	}
}

// BenchmarkOptLS1 is the committed cost of one optimize: a full
// bench.RunOne (bind + two-phase search, lint off, no budget) of the
// LS1-shaped 101-operator script, serial and at the default round-
// worker width. ns/op, B/op and allocs/op are the numbers ROADMAP
// item 10 and EXPERIMENTS E20 quote; TestOptimizeAllocCeiling in
// internal/opt holds the allocation count in tier-1.
func BenchmarkOptLS1(b *testing.B) { benchOptimize(b, datagen.LargeScript1()) }

// BenchmarkOptLS1PlanHit is BenchmarkOptLS1 for a script the session
// has already planned against the same cache state: bind, CSE
// identification, fingerprints, the plan key and re-asking the stored
// search's cache lookups, then the stored outcome instead of a search.
// Three session runs warm it: the first admits the shared artifacts,
// the second plans against them and stores that search.
func BenchmarkOptLS1PlanHit(b *testing.B) {
	w := datagen.LargeScript1()
	sess, err := share.NewSession(share.Config{Catalog: w.Cat, FS: w.FS, Machines: 8})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.Run(w.Script); err != nil {
			b.Fatal(err)
		}
	}
	opts := sess.Options()
	opts.Cache = sess.Cache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := logical.BuildSource(w.Script, w.Cat)
		if err != nil {
			b.Fatal(err)
		}
		res, err := opt.Optimize(m, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("LS1 was not served from the plan store")
		}
	}
}

// BenchmarkOptS4 is BenchmarkOptLS1 on S4, the micro-script with the
// most phase-2 rounds (256).
func BenchmarkOptS4(b *testing.B) { benchOptimize(b, bench.Small("S4", bench.ScriptS4)) }

func benchOptimize(b *testing.B, w *datagen.Workload) {
	for _, v := range []struct {
		name    string
		workers int
	}{{"Workers1", 1}, {"WorkersDefault", 0}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := bench.DefaultConfig()
			cfg.Lint = false
			cfg.UsePaperBudgets = false
			cfg.OptWorkers = v.workers
			b.ReportAllocs()
			var tasks int
			for i := 0; i < b.N; i++ {
				res, err := bench.RunOne(w, true, cfg)
				if err != nil {
					b.Fatal(err)
				}
				tasks = res.Stats.Phase1Tasks + res.Stats.Phase2Tasks
			}
			b.ReportMetric(float64(tasks), "tasks")
		})
	}
}

// BenchmarkBaselines regenerates the related-work comparison: for
// each micro-script, estimated cost under no sharing, local-optimal
// sharing (the pre-paper techniques), and the paper's cost-based
// framework.
func BenchmarkBaselines(b *testing.B) {
	cfg := bench.DefaultConfig()
	var rows []bench.BaselineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Baselines(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Conv, r.Script+"_conv")
		b.ReportMetric(r.LocalCSE, r.Script+"_local")
		b.ReportMetric(r.PaperCSE, r.Script+"_costbased")
	}
}

// BenchmarkExecution runs the optimized S1 plans on the simulated
// cluster, reporting metered work — the executable counterpart of
// Fig. 7's estimated comparison.
func BenchmarkExecution(b *testing.B) {
	cfg := bench.DefaultConfig()
	w := datagen.SmallWorkloadCols("S1", bench.ScriptS1, 20_000, 100_000, 11,
		datagen.MicroScriptColumns())
	for _, v := range []struct {
		name string
		cse  bool
	}{{"Conventional", false}, {"ExploitCSE", true}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			res, err := bench.RunOne(w, v.cse, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var m exec.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl, err := exec.NewCluster(5, w.FS)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cl.Run(res.Plan); err != nil {
					b.Fatal(err)
				}
				m = cl.Metrics()
			}
			b.ReportMetric(float64(m.RowsProcessed), "rows_processed")
			b.ReportMetric(float64(m.NetBytes), "net_bytes")
			b.ReportMetric(float64(m.Exchanges), "exchanges")
		})
	}
}

// BenchmarkIdentifyCSE measures Step 1 (fingerprints + spool
// insertion, Alg. 1) on the LS2-sized memo.
func BenchmarkIdentifyCSE(b *testing.B) {
	w := datagen.LargeScript2()
	for i := 0; i < b.N; i++ {
		m, err := logical.BuildSource(w.Script, w.Cat)
		if err != nil {
			b.Fatal(err)
		}
		core.IdentifyCommonSubexpressions(m)
	}
}

// BenchmarkPropagateLCA measures Step 3 (Alg. 3 propagation plus LCA
// identification) on the LS2-sized memo.
func BenchmarkPropagateLCA(b *testing.B) {
	w := datagen.LargeScript2()
	m, err := logical.BuildSource(w.Script, w.Cat)
	if err != nil {
		b.Fatal(err)
	}
	core.IdentifyCommonSubexpressions(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PropagateSharedGroups(m)
	}
}

// BenchmarkIndependenceScaling sweeps the number of independent
// shared pipelines under one LCA: with the Sec. VIII-A extension the
// phase-2 rounds grow linearly in the number of shared groups; the
// cartesian product grows exponentially (capped here by
// MaxRoundsPerLCA, which is the point — the naive strategy blows the
// budget immediately).
func BenchmarkIndependenceScaling(b *testing.B) {
	for _, pipelines := range []int{2, 4, 8} {
		shape := datagen.LSShape{
			Name:          "scale",
			TargetOps:     0, // no filler
			SharedFanouts: make([]int, pipelines),
			PhysRows:      500,
			StatScale:     100_000,
			Seed:          int64(pipelines),
		}
		for i := range shape.SharedFanouts {
			shape.SharedFanouts[i] = 2
		}
		w := datagen.LargeScript(shape)
		for _, v := range []struct {
			name    string
			disable bool
		}{{"Independent", false}, {"Cartesian", true}} {
			v := v
			b.Run(fmt.Sprintf("%s/pipelines=%d", v.name, pipelines), func(b *testing.B) {
				cfg := bench.DefaultConfig()
				cfg.DisableIndependence = v.disable
				cfg.MaxRoundsPerLCA = 4096
				cfg.UsePaperBudgets = false
				var rounds int
				for i := 0; i < b.N; i++ {
					res, err := bench.RunOne(w, true, cfg)
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Stats.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
			})
		}
	}
}

// BenchmarkOptRoundEngine measures the phase-2 round engine on S2
// (where branch-and-bound pruning fires) under each engine variant:
// the full engine, pruning ablated, cross-round winner reuse ablated,
// and the engine forced serial. Every variant reaches the same plan;
// the metrics show the search effort each optimization removes.
func BenchmarkOptRoundEngine(b *testing.B) {
	w := bench.Small("S2", bench.ScriptS2)
	for _, v := range []struct {
		name   string
		mutate func(*bench.Config)
	}{
		{"Full", nil},
		{"NoPrune", func(c *bench.Config) { c.DisableRoundPruning = true }},
		{"NoReuse", func(c *bench.Config) { c.DisableWinnerReuse = true; c.Lint = false }},
		{"Serial", func(c *bench.Config) { c.OptWorkers = 1 }},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := bench.DefaultConfig()
			cfg.UsePaperBudgets = false
			if v.mutate != nil {
				v.mutate(&cfg)
			}
			var st struct{ rounds, pruned, p2 int }
			for i := 0; i < b.N; i++ {
				res, err := bench.RunOne(w, true, cfg)
				if err != nil {
					b.Fatal(err)
				}
				st.rounds = res.Stats.Rounds
				st.pruned = res.Stats.RoundsPruned
				st.p2 = res.Stats.Phase2Tasks
			}
			b.ReportMetric(float64(st.rounds), "rounds")
			b.ReportMetric(float64(st.pruned), "rounds_pruned")
			b.ReportMetric(float64(st.p2), "phase2_tasks")
		})
	}
}

// BenchmarkTracerOverhead measures the observability tax on the full
// optimize-and-execute path of the S1–S4 micro-scripts. Off is the
// default nil-tracer configuration — every span site reduces to one
// pointer check, so Off must stay within 2% of a build without the
// instrumentation (the acceptance bar for the tracing layer). On
// records every optimizer and executor span, bounding what -trace
// costs when it is actually requested.
func BenchmarkTracerOverhead(b *testing.B) {
	scripts := []struct{ name, src string }{
		{"S1", bench.ScriptS1}, {"S2", bench.ScriptS2},
		{"S3", bench.ScriptS3}, {"S4", bench.ScriptS4},
	}
	for _, v := range []struct {
		name   string
		traced bool
	}{{"Off", false}, {"On", true}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var ws []*datagen.Workload
			for _, s := range scripts {
				ws = append(ws, bench.Small(s.name, s.src))
			}
			cfg := bench.DefaultConfig()
			cfg.UsePaperBudgets = false
			var spans int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, w := range ws {
					c := cfg
					if v.traced {
						c.Tracer = obs.NewTracer()
					}
					res, err := bench.RunOne(w, true, c)
					if err != nil {
						b.Fatal(err)
					}
					cl, err := exec.NewCluster(5, w.FS)
					if err != nil {
						b.Fatal(err)
					}
					cl.Trace = c.Tracer
					if _, err := cl.Run(res.Plan); err != nil {
						b.Fatal(err)
					}
					if v.traced {
						spans += c.Tracer.Len()
					}
				}
			}
			if v.traced {
				b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
			}
		})
	}
}
