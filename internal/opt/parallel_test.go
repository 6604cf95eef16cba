package opt

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/stats"
)

// sweepCase is one (name, script, catalog) the equivalence sweeps run.
type sweepCase struct {
	name   string
	script string
	cat    *stats.Catalog
}

func sweepCases(t *testing.T) []sweepCase {
	t.Helper()
	cases := []sweepCase{
		{"S1", scriptS1, testCatalog()},
		{"S2", scriptS2, testCatalog()},
		{"S3", scriptS3, testCatalog()},
		{"S4", scriptS4, testCatalog()},
		{"Fig5", scriptFig5, testCatalog()},
	}
	for seed := int64(1); seed <= 4; seed++ {
		w := datagen.RandomWorkload(seed, 8)
		cases = append(cases, sweepCase{fmt.Sprintf("rand%d", seed), w.Script, w.Cat})
	}
	return cases
}

func optimizeAt(t *testing.T, c sweepCase, mutate func(*Options)) *Result {
	t.Helper()
	m, err := buildWith(c.script, c.cat)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	opts := DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	res, err := Optimize(m, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res
}

// TestParallelRoundEquivalence is the tentpole determinism guarantee:
// plans, costs, round traces, and search counters are bit-identical at
// every round-evaluation pool width.
func TestParallelRoundEquivalence(t *testing.T) {
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, c := range sweepCases(t) {
		base := optimizeAt(t, c, func(o *Options) { o.Workers = 1 })
		for _, w := range widths[1:] {
			got := optimizeAt(t, c, func(o *Options) { o.Workers = w })
			if got.Cost != base.Cost {
				t.Errorf("%s workers=%d: cost %v, serial %v", c.name, w, got.Cost, base.Cost)
			}
			if gf, bf := plan.Format(got.Plan), plan.Format(base.Plan); gf != bf {
				t.Errorf("%s workers=%d: plan differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", c.name, w, bf, gf)
			}
			if !reflect.DeepEqual(got.Rounds, base.Rounds) {
				t.Errorf("%s workers=%d: round traces differ from serial\nserial:   %+v\nparallel: %+v", c.name, w, base.Rounds, got.Rounds)
			}
			if !reflect.DeepEqual(got.Stats, base.Stats) {
				t.Errorf("%s workers=%d: stats differ from serial\nserial:   %+v\nparallel: %+v", c.name, w, base.Stats, got.Stats)
			}
		}
	}
}

// TestBudgetExpiryDeterminism exercises the budget expiring before any
// round runs: every width must produce the same valid fallback plan,
// flag the exhaustion, and leave a synthetic Fallback trace (which does
// not count toward Stats.Rounds).
func TestBudgetExpiryDeterminism(t *testing.T) {
	c := sweepCase{"S1", scriptS1, testCatalog()}
	var base *Result
	for _, w := range []int{1, 4} {
		res := optimizeAt(t, c, func(o *Options) {
			o.Workers = w
			o.Timeout = time.Nanosecond
		})
		if res.Plan == nil {
			t.Fatalf("workers=%d: no plan under expired budget", w)
		}
		if !res.Stats.BudgetExhausted {
			t.Errorf("workers=%d: BudgetExhausted not set", w)
		}
		if res.Stats.Rounds != 0 {
			t.Errorf("workers=%d: %d rounds ran under a 1ns budget", w, res.Stats.Rounds)
		}
		fallbacks := 0
		for _, r := range res.Rounds {
			if r.Fallback {
				fallbacks++
			}
		}
		if fallbacks == 0 {
			t.Errorf("workers=%d: no Fallback trace recorded; traces: %+v", w, res.Rounds)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Cost != base.Cost || !reflect.DeepEqual(res.Rounds, base.Rounds) {
			t.Errorf("workers=%d: expired-budget result differs from serial", w)
		}
	}
}

// TestRoundPruningAblation: pruning never changes the chosen plan or
// its cost — it only replaces the exact cost of provably-worse rounds
// with +Inf — and the full engine does prune on the micro-scripts.
func TestRoundPruningAblation(t *testing.T) {
	prunedTotal := 0
	for _, c := range sweepCases(t)[:5] {
		full := optimizeAt(t, c, nil)
		noPrune := optimizeAt(t, c, func(o *Options) { o.DisableRoundPruning = true })
		if full.Cost != noPrune.Cost {
			t.Errorf("%s: pruning changed cost: %v vs %v", c.name, full.Cost, noPrune.Cost)
		}
		if plan.Format(full.Plan) != plan.Format(noPrune.Plan) {
			t.Errorf("%s: pruning changed the plan", c.name)
		}
		if noPrune.Stats.RoundsPruned != 0 {
			t.Errorf("%s: no-prune run reports %d pruned rounds", c.name, noPrune.Stats.RoundsPruned)
		}
		if full.Stats.Rounds != noPrune.Stats.Rounds {
			t.Errorf("%s: pruning changed round count: %d vs %d", c.name, full.Stats.Rounds, noPrune.Stats.Rounds)
		}
		for i, r := range full.Rounds {
			if r.Pruned && !math.IsInf(r.Cost, 1) {
				t.Errorf("%s: round %d pruned with finite cost %v", c.name, i, r.Cost)
			}
			if r.Pruned && r.Best {
				t.Errorf("%s: round %d both pruned and best", c.name, i)
			}
		}
		prunedTotal += full.Stats.RoundsPruned
	}
	if prunedTotal == 0 {
		t.Error("branch-and-bound never pruned a round across the micro-scripts")
	}
}

// TestWinnerReuseAblation: cross-round winner reuse only skips
// recomputation — the plan and cost are unchanged — and it cuts
// phase-2 optimization tasks by a large factor.
func TestWinnerReuseAblation(t *testing.T) {
	for _, c := range []sweepCase{
		{"S1", scriptS1, testCatalog()},
		{"Fig5", scriptFig5, testCatalog()},
	} {
		full := optimizeAt(t, c, nil)
		noReuse := optimizeAt(t, c, func(o *Options) { o.DisableWinnerReuse = true })
		if full.Cost != noReuse.Cost {
			t.Errorf("%s: winner reuse changed cost: %v vs %v", c.name, full.Cost, noReuse.Cost)
		}
		if full.Stats.Phase2Tasks >= noReuse.Stats.Phase2Tasks {
			t.Errorf("%s: reuse did not reduce phase-2 tasks: %d (reuse) vs %d (no reuse)",
				c.name, full.Stats.Phase2Tasks, noReuse.Stats.Phase2Tasks)
		}
	}
}

// TestOptionsNormalize: every capped knob gets its default from the
// single normalize path.
func TestOptionsNormalize(t *testing.T) {
	o := DefaultOptions()
	if o.MaxRoundsPerLCA != 256 {
		t.Errorf("MaxRoundsPerLCA = %d, want 256", o.MaxRoundsPerLCA)
	}
	if o.MaxHistoryPerReq != 16 || o.MaxHistoryPerGroup != 24 {
		t.Errorf("history caps = %d/%d, want 16/24", o.MaxHistoryPerReq, o.MaxHistoryPerGroup)
	}
	if o.Workers < 1 {
		t.Errorf("Workers = %d, want >= 1", o.Workers)
	}
	// Zero-valued knobs passed straight to Optimize are normalized the
	// same way: a zero-worker option must behave like the default, not
	// dead-lock the batch engine.
	res, err := Optimize(buildScript(t, scriptS1), Options{
		EnableCSE: true,
		Cluster:   o.Cluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Cost <= 0 {
		t.Fatal("normalized zero options produced no plan")
	}
}

// TestZeroRulesGetDefaults: options whose Rules are left zero plan
// exactly like DefaultOptions, whatever the cluster says — normalize
// fills the whole rule configuration, not a machine count alone.
func TestZeroRulesGetDefaults(t *testing.T) {
	for _, machines := range []int{8, 100} {
		for _, c := range sweepCases(t)[:5] {
			want := optimizeAt(t, c, func(o *Options) { o.Cluster.Machines = machines })
			got := optimizeAt(t, c, func(o *Options) {
				o.Cluster.Machines = machines
				o.Rules = rules.Config{}
			})
			if got.Cost != want.Cost {
				t.Errorf("%s machines=%d: zero Rules cost %.3f, default Rules %.3f", c.name, machines, got.Cost, want.Cost)
			}
			if plan.Format(got.Plan) != plan.Format(want.Plan) {
				t.Errorf("%s machines=%d: zero Rules planned differently from default Rules", c.name, machines)
			}
		}
	}
}
