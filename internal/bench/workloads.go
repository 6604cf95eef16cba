// Package bench is the experiment harness: it owns the canonical
// evaluation workloads (the paper's S1–S4 micro-scripts and the
// LS1/LS2-shaped generated scripts) and regenerates every table and
// figure of the paper's Sec. IX — Fig. 7's estimated-cost comparison,
// Fig. 8's plan shapes, and the Sec. VIII round-count reductions.
package bench

import (
	"fmt"
	"time"

	"repro/internal/datagen"
)

// The paper's micro-scripts, whose text lives in datagen.
const ScriptS1, ScriptS2, ScriptS3, ScriptS4, ScriptFig5 = datagen.ScriptS1, datagen.ScriptS2, datagen.ScriptS3, datagen.ScriptS4, datagen.ScriptFig5

// ScriptRanking exercises the Sec. VIII-C property ranking: the
// shared group's consumers are one {A,C} grouping (recorded first)
// and two distinct {B} groupings, so the exact-{B} scheme wins the
// phase-1 history twice and ranked round generation tries the best
// pin first, while unranked (recording-order) generation starts with
// an {A,C}-derived scheme.
const ScriptRanking = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,C,Sum(S) as S1 FROM R GROUP BY A,C;
R2 = SELECT B,Sum(S) as S2 FROM R GROUP BY B;
R3 = SELECT B,Min(S) as S3 FROM R GROUP BY B;
OUTPUT R1 TO "o1";
OUTPUT R2 TO "o2";
OUTPUT R3 TO "o3";
`

// smallPhysRows and smallStatScale put the micro-scripts' inputs at 2
// billion logical rows (64 GB at 32 B/row) over laptop-sized physical
// data.
const (
	smallPhysRows  = 2_000
	smallStatScale = 1_000_000
)

// Small returns the workload for one of the S1–S4 micro-scripts.
func Small(name, script string) *datagen.Workload {
	return datagen.SmallWorkloadCols(name, script, smallPhysRows, smallStatScale, 7,
		datagen.MicroScriptColumns())
}

// BuiltinWorkload resolves the builtin script names the CLIs accept
// (s1 s2 s3 s4 fig5 ls1 ls2). Every tool that takes a -script flag
// resolves it here, so the name set cannot drift between commands.
func BuiltinWorkload(name string) (*datagen.Workload, error) {
	switch name {
	case "s1":
		return Small("S1", ScriptS1), nil
	case "s2":
		return Small("S2", ScriptS2), nil
	case "s3":
		return Small("S3", ScriptS3), nil
	case "s4":
		return Small("S4", ScriptS4), nil
	case "fig5":
		return Small("Fig5", ScriptFig5), nil
	case "ls1":
		return datagen.LargeScript1(), nil
	case "ls2":
		return datagen.LargeScript2(), nil
	default:
		return nil, fmt.Errorf("unknown builtin script %q", name)
	}
}

// PaperSavings records the savings the paper reports in Fig. 7, for
// side-by-side comparison in experiment output.
var PaperSavings = map[string]float64{
	"S1": 0.38, "S2": 0.55, "S3": 0.45, "S4": 0.57,
	"LS1": 0.21, "LS2": 0.45,
}

// Fig7Workloads returns the six evaluation workloads of Fig. 7 in
// paper order.
func Fig7Workloads() []*datagen.Workload {
	return []*datagen.Workload{
		Small("S1", ScriptS1),
		Small("S2", ScriptS2),
		Small("S3", ScriptS3),
		Small("S4", ScriptS4),
		datagen.LargeScript1(),
		datagen.LargeScript2(),
	}
}

// MicroWorkloads returns the four micro-scripts plus the Fig. 5
// script, the workloads the optimizer timing sweep runs.
func MicroWorkloads() []*datagen.Workload {
	return []*datagen.Workload{
		Small("S1", ScriptS1),
		Small("S2", ScriptS2),
		Small("S3", ScriptS3),
		Small("S4", ScriptS4),
		Small("Fig5", ScriptFig5),
	}
}

// BudgetOf returns the optimization budget for a workload (the paper
// used 30 s / 60 s for LS1 / LS2 and no explicit budget for S1–S4).
func BudgetOf(w *datagen.Workload) time.Duration {
	return time.Duration(w.BudgetSeconds) * time.Second
}
