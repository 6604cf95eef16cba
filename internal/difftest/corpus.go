package difftest

import (
	"fmt"
	"slices"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/rules"
)

// state is how a cell's plan was obtained: searched cold, searched
// against a session cache holding the warming script's artifacts, or
// served by that session's plan store.
type state int

const (
	cold state = iota
	warm
	served
)

// cell is one point of the matrix. cse, rules, state and workers
// decide the plan; workers and budget the execution. workers sizes the
// optimizer's round pool and the executor's pool together.
type cell struct {
	cse     bool
	rules   string
	state   state
	workers int
	budget  int64
}

// planKey is the plan-deciding part of a cell: all but its budget.
func (c cell) planKey() cell {
	c.budget = 0
	return c
}

// String names the cell by its axis values; it is the cell's subtest
// name, so `go test -run 'TestDifferential/<case>/<cell>'` replays it.
func (c cell) String() string {
	s := fmt.Sprintf("cse=%s/rules=%s", map[bool]string{false: "off", true: "on"}[c.cse], c.rules)
	if c.state != cold {
		s += "/cache=warm/plan=" + map[state]string{warm: "search", served: "served"}[c.state]
	}
	return fmt.Sprintf("%s/workers=%d/budget=%d", s, c.workers, c.budget)
}

// profiles are the rule profiles of the rules axis. Its fourth value,
// paper, is bench.DefaultConfig: the SCOPE profile under the paper's
// cost scale and optimization budgets, planned through bench.RunOne.
var profiles = map[string]func() rules.Config{
	"default": rules.DefaultConfig,
	"scope":   rules.SCOPEProfile,
	"projmerge": func() rules.Config {
		c := rules.DefaultConfig()
		c.EnableProjectMerge, c.EnableFilterPushdown = true, true
		return c
	},
}

// axes lists the values a case takes on each axis; its cells are every
// combination.
type axes struct {
	cse     []bool
	rules   []string
	states  []state
	workers []int
	budgets []int64
}

func (a axes) cells() []cell {
	var out []cell
	for _, cse := range a.cse {
		for _, r := range a.rules {
			for _, st := range a.states {
				for _, w := range a.workers {
					for _, b := range a.budgets {
						out = append(out, cell{cse, r, st, w, b})
					}
				}
			}
		}
	}
	return out
}

// entry is one corpus entry: a script over its data (built when the
// entry runs), the cluster it runs on and the cells it is checked in.
// Its warm cells plan against the artifacts of warmBy's cold run (its
// own script's when empty); shares says that run must admit some.
type entry struct {
	name     string
	load     func() *datagen.Workload
	machines int
	cells    []cell
	warmBy   string
	shares   bool
}

// Scripts holds the corpus scripts that exercise language features
// the evaluation scripts do not: filters, a textual duplicate, HAVING,
// DISTINCT, ORDER BY (ascending and descending, over Avg) and UNION ALL
// (of one shared intermediate with itself, too).
var Scripts = map[string]string{
	"filters": `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
F = SELECT A, B, D FROM R0 WHERE A > 3 AND B != 2;
R = SELECT A,B,Sum(D) as S, Count() as N, Min(D) as MN, Max(D) as MX FROM F GROUP BY A,B;
R1 = SELECT A,Sum(S) as T FROM R GROUP BY A;
R2 = SELECT B,Sum(N) as M FROM R GROUP BY B;
OUTPUT R1 TO "o1";
OUTPUT R2 TO "o2";
`,
	"textual-dup": `
X0 = EXTRACT A,B,D FROM "test.log" USING LogExtractor;
X = SELECT A,B,Sum(D) as S FROM X0 GROUP BY A,B;
Y0 = EXTRACT A,B,D FROM "test.log" USING LogExtractor;
Y = SELECT A,B,Sum(D) as S FROM Y0 GROUP BY A,B;
X1 = SELECT A,Sum(S) as SA FROM X GROUP BY A;
Y1 = SELECT B,Sum(S) as SB FROM Y GROUP BY B;
OUTPUT X1 TO "o1";
OUTPUT Y1 TO "o2";
`,
	"having": `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as S, Count() as N FROM R0 GROUP BY A,B HAVING N > 1;
R1 = SELECT A,Sum(S) as T FROM R GROUP BY A;
R2 = SELECT B,Max(S) as M FROM R GROUP BY B;
OUTPUT R1 TO "o1";
OUTPUT R2 TO "o2";
`,
	"distinct": `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT DISTINCT A, B FROM R0;
R1 = SELECT A, Count() as N FROM R GROUP BY A;
R2 = SELECT B, Count() as N FROM R GROUP BY B;
OUTPUT R1 TO "o1";
OUTPUT R2 TO "o2";
`,
	"ordered-output": `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,Sum(D) as S FROM R0 GROUP BY A,B;
OUTPUT R TO "sorted.out" ORDER BY B, A;
OUTPUT R TO "plain.out";
`,
	"ordered-desc": `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A, Sum(D) as S, Avg(D) as V FROM R0 GROUP BY A;
OUTPUT R TO "top.out" ORDER BY S DESC, A;
`,
	"union-all": `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
LOW = SELECT A, B, D FROM R0 WHERE A < 3;
HIGH = SELECT A, B, D FROM R0 WHERE A >= 3;
ALLROWS = UNION ALL LOW, HIGH;
AGG = SELECT A, Sum(D) as S, Count() as N FROM ALLROWS GROUP BY A;
TWICE = UNION ALL AGG, AGG;
T2 = SELECT A, Sum(S) as SS FROM TWICE GROUP BY A;
OUTPUT AGG TO "o1";
OUTPUT T2 TO "o2";
`,
}

var (
	on, both  = []bool{true}, []bool{false, true}
	one       = []int{1}
	widths    = []int{1, 8}
	inMemory  = []int64{0}
	cold1     = []state{cold}
	reuse     = []state{warm, served}
	defaultRP = []string{"default"}
)

// corpus is the matrix. An evaluation script takes the SCOPE profile
// at both widths and budgets, the default one at one width, the paper
// configuration with CSE on at both widths, and the warm and served
// plans at both widths and budgets; S2 also plans warm against S1's
// artifacts, whose layout S1 chose. A feature script takes the default
// and SCOPE profiles, cold, in memory, at one width. A random workload
// takes all three rule profiles; the first 12 also workers=8 and the
// first 4 the warm and served plans, which holds the matrix's cost
// near the suites it replaced. short keeps `go test -short`'s seed
// counts.
func corpus(short bool) []*entry {
	reused := axes{on, defaultRP, reuse, widths, []int64{0, 512}}.cells()
	eval := slices.Concat(axes{both, []string{"scope"}, cold1, widths, []int64{0, 512}}.cells(),
		axes{both, defaultRP, cold1, one, []int64{0, 512}}.cells(),
		axes{on, []string{"paper"}, cold1, widths, inMemory}.cells(), reused)
	small := func(name, src string) func() *datagen.Workload {
		return func() *datagen.Workload { return bench.Small(name, src) }
	}
	var cs []*entry
	for _, s := range []struct{ name, src string }{
		{"S1", datagen.ScriptS1}, {"S2", datagen.ScriptS2}, {"S3", datagen.ScriptS3},
		{"S4", datagen.ScriptS4}, {"Fig5", datagen.ScriptFig5},
	} {
		cs = append(cs, &entry{s.name, small(s.name, s.src), 8, eval, "", true})
	}
	cs = append(cs, &entry{"S2-after-S1", small("S2", datagen.ScriptS2), 8, reused, datagen.ScriptS1, true})
	feature := axes{both, []string{"default", "scope"}, cold1, one, inMemory}.cells()
	for _, name := range []string{"filters", "textual-dup", "having", "distinct", "ordered-output", "ordered-desc", "union-all"} {
		cs = append(cs, &entry{name, func() *datagen.Workload {
			return datagen.SmallWorkload(name, Scripts[name], 2_000, 1_000, 13)
		}, 5, feature, "", false})
	}
	seeds, wide, warmed := int64(40), int64(12), int64(4)
	if short {
		seeds, wide, warmed = 8, 4, 2
	}
	for seed := range seeds {
		cells := axes{both, []string{"default", "scope", "projmerge"}, cold1, one, inMemory}.cells()
		if seed < wide {
			cells = append(cells, axes{both, defaultRP, cold1, []int{8}, inMemory}.cells()...)
		}
		if seed < warmed {
			cells = append(cells, axes{on, defaultRP, reuse, widths, inMemory}.cells()...)
		}
		cs = append(cs, &entry{fmt.Sprintf("seed%02d", seed), func() *datagen.Workload {
			return datagen.RandomWorkload(seed, 8+int(seed%7))
		}, 7, cells, "", false})
	}
	return cs
}
