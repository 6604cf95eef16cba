package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/stats"
)

// Request classes: how a request relates to the cache when it is
// sent. Per-class medians are the serve.*_p50_ms per-layer metrics.
const (
	classCold    = "cold"
	classWarm    = "warm"
	classRevisit = "revisit"
)

// item is one request of a workload's schedule.
type item struct {
	script string
	class  string
	// key names the shared subexpressions the script would build when
	// they are uncovered: two items with the same key that both report
	// a miss inside one barrier step built the same artifact twice.
	key string
	// ref is the script whose exec.Reference outputs hold this item's
	// expected outputs by path (its own text unless several scripts
	// share one reference run), and outputs how many the response
	// must carry.
	ref     string
	outputs int
	// deferred items are verified after the measured interval from a
	// seeded sample instead of against a reference computed in set-up.
	deferred bool
}

// newItem fills in what follows from the script text.
func newItem(script, class, key, ref string, deferred bool) item {
	return item{script: script, class: class, key: key, ref: ref,
		outputs: strings.Count(script, "OUTPUT "), deferred: deferred}
}

// instance is one generated workload: inputs, schedule and sizes.
type instance struct {
	spec *spec
	fs   *exec.FileStore
	cat  *stats.Catalog
	// pool is the distinct script pool: what opt.est_cost_ratio is
	// taken over, and the batch mqo.* plans unless mqoPool narrows it.
	pool    []item
	mqoPool []item
	// warmup is posted sequentially before the clock starts.
	warmup []item
	// next returns the i-th request of free-running client c.
	next func(c, i int) item
	// step returns barrier step i: one item per lane, plus an optional
	// write applied at the barrier before they are sent. Non-nil
	// selects lockstep driving.
	step func(i int) ([2]item, func())
	// cacheBytes is the service's -cache-bytes; rows and tableBytes
	// describe the generated inputs.
	cacheBytes int64
	rows       int64
	tableBytes int64
}

// spec is one workload of the catalogue.
type spec struct {
	name string
	why  string
	// rows is the physical row count per input table at scale 1.
	rows       int64
	cacheBytes int64
	// Deferred items are verified after the clock stops: a seeded
	// 1-in-verifyEvery sample of them, at most verifyLimit reference
	// runs, so that verifying stays a few seconds.
	verifyEvery, verifyLimit int
	build                    func(sp *spec, seed int64, scale float64) *instance
}

// catalogue lists the four workloads in BENCHMARK.json order.
func catalogue() []*spec {
	return []*spec{
		{
			name:       "cold-scan",
			why:        "never-repeated scripts over low-cardinality tables: exec kernels and the cache write/evict path do the work, nothing is reused",
			rows:       100_000,
			cacheBytes: 16 << 20,
			// Never-repeated scripts: one reference run per sample.
			verifyEvery: 16, verifyLimit: 24,
			build: buildColdScan,
		},
		{
			name:       "warm-repeat",
			why:        "a fixed pool resubmitted against a cache that holds everything: share lookup/pin and the exec cache-load path dominate",
			rows:       25_000,
			cacheBytes: 64 << 20,
			build:      buildWarmRepeat,
		},
		{
			name:       "plan-heavy",
			why:        "LS1-shaped 100-operator scripts and S4 over 500-row tables, resubmitted warm: the optimizer is the bill",
			rows:       500,
			cacheBytes: 64 << 20,
			build:      buildPlanHeavy,
		},
		{
			name:       "overlap-churn",
			why:        "generations of overlapping cold arrivals, warm hits, Zipf revisits and invalidating writes against a cache a third of the working set",
			rows:       60_000,
			cacheBytes: 0, // three artifacts, sized from the table in buildOverlapChurn
			// One reference run per generation verifies all its requests.
			verifyEvery: 1, verifyLimit: 64,
			build: buildOverlapChurn,
		},
	}
}

func findSpec(name string) *spec {
	for _, sp := range catalogue() {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// mix is splitmix64 over the seed and a list of indexes: the schedule
// functions are pure in (seed, client, index), so a request's content
// never depends on how fast the other client ran.
func mix(seed int64, parts ...int) uint64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// permutation is a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(n int, seed int64, salt int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, salt, i) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func scaled(rows int64, scale float64) int64 {
	n := int64(float64(rows) * scale)
	if n < 200 {
		n = 200
	}
	return n
}

// putTable generates one input table and registers exact statistics.
func putTable(in *instance, path string, rows int64, cols []datagen.ColumnSpec, seed, statScale int64) {
	t := datagen.LogTable(rows, cols, seed)
	in.fs.Put(path, t)
	datagen.CatalogFor(in.cat, path, rows, cols, statScale)
	in.tableBytes += t.Bytes()
}

func newInstance(sp *spec, scale float64) *instance {
	return &instance{spec: sp, fs: exec.NewFileStore(), cat: stats.NewCatalog(),
		cacheBytes: sp.cacheBytes, rows: scaled(sp.rows, scale)}
}

// Script templates. Each takes the filter placed under the shared
// aggregation; the literal in it makes the (fingerprint, signature)
// of everything above it new. Output paths are distinct per template
// so one reference run of a merged script can serve several scripts.

func sharedAgg(rs, file, where string) string {
	return fmt.Sprintf(`%[1]s0 = EXTRACT A,B,C,D FROM %[2]q USING LogExtractor;
%[1]sW = SELECT A,B,C,D FROM %[1]s0 WHERE %[3]s;
%[1]s = SELECT A,B,C,Sum(D) as S FROM %[1]sW GROUP BY A,B,C;
`, rs, file, where)
}

func s1Consumers(rs, out string) string {
	return fmt.Sprintf(`%[1]s1 = SELECT A,B,Sum(S) as S1 FROM %[1]s GROUP BY A,B;
%[1]s2 = SELECT B,C,Sum(S) as S2 FROM %[1]s GROUP BY B,C;
OUTPUT %[1]s1 TO "%[2]s/r1.out";
OUTPUT %[1]s2 TO "%[2]s/r2.out";
`, rs, out)
}

func s2Consumers(rs, out string) string {
	return fmt.Sprintf(`%[1]s1 = SELECT B,A,Sum(S) as S1 FROM %[1]s GROUP BY B,A;
%[1]s2 = SELECT A,C,Sum(S) as S2 FROM %[1]s GROUP BY A,C;
%[1]s3 = SELECT A,Sum(S) as S3 FROM %[1]s GROUP BY A;
OUTPUT %[1]s1 TO "%[2]s/r1.out";
OUTPUT %[1]s2 TO "%[2]s/r2.out";
OUTPUT %[1]s3 TO "%[2]s/r3.out";
`, rs, out)
}

// joinConsumers is the low-fan-out join shape: both sides group the
// shared aggregation by (A,B), so the equi-join on the full key
// returns one row per group instead of S3/S4's per-B cross product.
func joinConsumers(rs, out string) string {
	return fmt.Sprintf(`%[1]s1 = SELECT A,B,Sum(S) as S1 FROM %[1]s GROUP BY A,B;
%[1]s2 = SELECT A,B,Max(S) as S2 FROM %[1]s GROUP BY A,B;
%[1]sJ = SELECT %[1]s1.A,%[1]s1.B,S1,S2 FROM %[1]s1,%[1]s2 WHERE %[1]s1.A=%[1]s2.A AND %[1]s1.B=%[1]s2.B;
OUTPUT %[1]sJ TO "%[2]s/j.out";
`, rs, out)
}

func scriptS1(where string) string { return sharedAgg("R", "test.log", where) + s1Consumers("R", "s1") }
func scriptS2(where string) string { return sharedAgg("R", "test.log", where) + s2Consumers("R", "s2") }
func scriptJoin(where string) string {
	return sharedAgg("R", "test.log", where) + joinConsumers("R", "jn")
}

// scriptFig5 is the Fig. 5 shape, two disjoint shared pipelines, over
// two half-size tables: it then costs about what S1 costs over the
// full one, which keeps a mixed pool's latencies in one mode.
func scriptFig5(where, where2 string) string {
	return sharedAgg("R", "half1.log", where) + sharedAgg("T", "half2.log", where2) +
		s1Consumers("R", "f5r") + s1Consumers("T", "f5t")
}

// putInputs generates test.log at full size and Fig. 5's two halves.
func putInputs(in *instance, cols []datagen.ColumnSpec, seed int64) {
	putTable(in, "test.log", in.rows, cols, int64(mix(seed, 1)>>1), 1)
	putTable(in, "half1.log", in.rows/2, cols, int64(mix(seed, 2)>>1), 1)
	putTable(in, "half2.log", in.rows/2, cols, int64(mix(seed, 3)>>1), 1)
}

// Low-cardinality profile of cold-scan: 20k (A,B,C) groups, so the
// shared aggregation reduces 100k rows 5x and consumers are cheap
// next to the scan, filter and first aggregation.
func lowCardColumns() []datagen.ColumnSpec {
	return []datagen.ColumnSpec{
		{Name: "A", Distinct: 20}, {Name: "B", Distinct: 20},
		{Name: "C", Distinct: 50}, {Name: "D", Distinct: 1 << 40},
	}
}

// coldCycle is cold-scan's template mix, one entry per request in a
// fixed cycle so every run sends the same shares: S1 5/16, S2 8/16,
// Fig5 2/16, join 1/16. Fig5 and the join take 1.5x and 2.5x as long
// to optimize as S1 and S2, and this workload is the one on which the
// optimizer must stay a small share.
var coldCycle = []int{1, 0, 1, 3, 1, 0, 1, 2, 1, 0, 1, 3, 1, 0, 1, 0}

func buildColdScan(sp *spec, seed int64, scale float64) *instance {
	in := newInstance(sp, scale)
	putInputs(in, lowCardColumns(), seed)
	// The cache holds about 25 artifacts at any scale, so admission
	// evicts on every request once it has filled.
	in.cacheBytes = int64(float64(sp.cacheBytes) * float64(in.rows) / float64(sp.rows))
	base := int(mix(seed, 4) % 997)
	// Every literal is new, and all sit in the lowest 2^-10 of D's
	// domain: identity changes on every request, cost does not.
	lit := func(c, i, k int) int { return 1 + base + 997*(3*(i*16+c)+k) }
	gen := func(c, i int) item {
		var s string
		switch coldCycle[(i+3*c)%len(coldCycle)] {
		case 0:
			s = scriptS1(fmt.Sprintf("D > %d", lit(c, i, 0)))
		case 1:
			s = scriptS2(fmt.Sprintf("D > %d", lit(c, i, 0)))
		case 2:
			s = scriptJoin(fmt.Sprintf("D > %d", lit(c, i, 0)))
		default:
			s = scriptFig5(fmt.Sprintf("D > %d", lit(c, i, 0)), fmt.Sprintf("D > %d", lit(c, i, 1)))
		}
		return newItem(s, classCold, fmt.Sprintf("c%d.%d", c, i), s, true)
	}
	in.next = gen
	// Client 15 is nobody's id: the warm-up and the pool never collide
	// with a measured literal.
	for i := 0; i < 8; i++ {
		in.warmup = append(in.warmup, gen(15, i))
	}
	in.pool = in.warmup
	return in
}

// warmPool is warm-repeat's pool. The rowset-renamed and
// conjunct-commuted variants keep (fingerprint, signature, schema) of
// the shared aggregation, so they must be served from the artifact
// their base script admitted. Five scripts have two consumers per
// shared artifact and three have three, so p50 sits inside the first
// group's latencies and p90 inside the second's.
func warmPool() []string {
	f1, f2 := "D >= 0 AND A >= 0", "A >= 0 AND D >= 0"
	return []string{
		bench.ScriptS1,
		renamedS1,
		scriptS1(f1),
		sharedAgg("Q", "test.log", f2) + s1Consumers("Q", "s1"),
		scriptFig5("D >= 0", "D >= 0"),
		bench.ScriptS2,
		scriptS2(f1),
		sharedAgg("Q", "test.log", f2) + s2Consumers("Q", "s2"),
	}
}

// renamedS1 is bench.ScriptS1 with every rowset renamed.
const renamedS1 = `
Q0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
Q = SELECT A,B,C,Sum(D) as S FROM Q0 GROUP BY A,B,C;
Q1 = SELECT A,B,Sum(S) as S1 FROM Q GROUP BY A,B;
Q2 = SELECT B,C,Sum(S) as S2 FROM Q GROUP BY B,C;
OUTPUT Q1 TO "result1.out";
OUTPUT Q2 TO "result2.out";
`

// fixedPool wraps scripts as warm items verified against references
// computed in set-up.
func fixedPool(scripts []string) []item {
	pool := make([]item, len(scripts))
	for i, s := range scripts {
		pool[i] = newItem(s, classWarm, fmt.Sprintf("p%d", i), s, false)
	}
	return pool
}

// cyclePool sends the pool in a seeded order, each client starting at
// its own offset, so every script has the same share on every run.
func cyclePool(in *instance, seed int64) {
	n := len(in.pool)
	order := permutation(n, seed, 7)
	in.next = func(c, i int) item { return in.pool[order[(i+c*(n/2+1))%n]] }
	// Two passes: the first admits, the second confirms every script
	// now plans against the cache before the clock starts.
	in.warmup = append(append([]item(nil), in.pool...), in.pool...)
}

func buildWarmRepeat(sp *spec, seed int64, scale float64) *instance {
	in := newInstance(sp, scale)
	putInputs(in, datagen.MicroScriptColumns(), seed)
	in.pool = fixedPool(warmPool())
	cyclePool(in, seed)
	return in
}

// planShapes are LS1 variants: same 101 operators and 4 shared groups,
// the three-consumer group moved, so the scripts differ while their
// inputs (same generator seed, same paths) are the same files.
func planShapes(seed int64, rows int64) []datagen.LSShape {
	fans := [][]int{{2, 2, 2, 3}, {3, 2, 2, 2}, {2, 3, 2, 2}, {2, 2, 3, 2}}
	shapes := make([]datagen.LSShape, len(fans))
	for i, f := range fans {
		sh := datagen.LS1Shape()
		sh.SharedFanouts = f
		sh.PhysRows = rows
		sh.Seed = int64(mix(seed, 1) >> 1)
		shapes[i] = sh
	}
	return shapes
}

func buildPlanHeavy(sp *spec, seed int64, scale float64) *instance {
	in := newInstance(sp, scale)
	var scripts []string
	for _, sh := range planShapes(seed, in.rows) {
		w := datagen.LargeScript(sh)
		for _, p := range w.FS.Paths() {
			if _, ok := in.fs.Get(p); ok {
				continue
			}
			t, _ := w.FS.Get(p)
			in.fs.Put(p, t)
			in.cat.Put(p, w.Cat.Table(p))
			in.tableBytes += t.Bytes()
		}
		scripts = append(scripts, w.Script)
	}
	// S4's inputs keep the statistics scale of bench.Small, which is
	// what gives phase 2 its 256 naive rounds.
	cols := datagen.MicroScriptColumns()
	putTable(in, "test.log", in.rows, cols, int64(mix(seed, 2)>>1), 1_000_000)
	putTable(in, "test2.log", in.rows, cols, int64(mix(seed, 3)>>1), 1_000_000)
	scripts = append(scripts, bench.ScriptS4)
	in.pool = fixedPool(scripts)
	// One mqo.Select over two LS1 variants costs 180 optimizer runs
	// and 8 s, so the MQO batch is the pool without them.
	in.mqoPool = in.pool[len(in.pool)-1:]
	cyclePool(in, seed)
	return in
}

// Mid-cardinality profile of overlap-churn: 20k groups over 60k rows,
// so an artifact is a third of its input.
func midCardColumns() []datagen.ColumnSpec {
	return []datagen.ColumnSpec{
		{Name: "A", Distinct: 40}, {Name: "B", Distinct: 25},
		{Name: "C", Distinct: 20}, {Name: "D", Distinct: 1 << 40},
	}
}

// churnGenerations is the length of the generation cycle. A 60 s run
// stays inside it; a longer one starts over with scripts whose
// artifacts were evicted long ago.
const churnGenerations = 256

// revisitCycle is lane 1's distance back in the generations without
// a write: j in [1, 12] with frequencies proportional to 1/j,
// as a fixed multiset so every run has the same share of hits (j <= 2
// is still cached, 15 of 31) and rebuilds. The seed orders it.
var revisitCycle = []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10, 11, 12}

// groupIDs lists the ids C*1000+B*40+A of the (A,B,C) groups present
// in t, ascending: its length is the row count of an unfiltered
// shared aggregation over t.
func groupIDs(t *exec.Table) []int64 {
	seen := map[int64]bool{}
	for _, r := range t.Rows {
		seen[r[2].I*1000+r[1].I*40+r[0].I] = true
	}
	ids := make([]int64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// churnScript is script S1 (which 0) or S2 (which 1) of a generation,
// or its rowset-renamed, conjunct-commuted variant.
func churnScript(where string, which int, variant bool) string {
	rs := "R"
	if variant {
		rs = "Q"
		i := strings.Index(where, " AND ")
		where = where[i+5:] + " AND " + where[:i]
	}
	if which == 0 {
		return sharedAgg(rs, "test.log", where) + s1Consumers(rs, "s1")
	}
	return sharedAgg(rs, "test.log", where) + s2Consumers(rs, "s2")
}

// churnRef is the merged reference script of one generation: the
// shared aggregation once and every consumer of S1 and S2 above it,
// so one reference run verifies both scripts and their variants.
func churnRef(where string) string {
	s2 := s2Consumers("R", "s2")
	for _, n := range []string{"1", "2", "3"} {
		s2 = strings.ReplaceAll(s2, "R"+n, "P"+n)
	}
	return sharedAgg("R", "test.log", where) + s1Consumers("R", "s1") + s2
}

// buildOverlapChurn lays out generations of four barrier steps over
// two lanes (one per client; a single client sends both in turn):
//
//	0 cold overlap  S1_g | S2_g, both needing the uncovered R_g
//	1 warm          S2_g | S1_g
//	2 warm variants of step 0's scripts
//	3 revisit       a script of an earlier generation per lane
//
// Every second generation starts with a write that re-Puts the input
// table and its statistics unchanged: results stay valid, every cache
// entry does not. share.Cache drops a stale entry only when its exact
// key is looked up, and its benefit-aware eviction never prefers a
// new entry to one with two or more hits, so stale proven entries
// that nobody asks for again would fill the cache for good. The
// revisits of a write generation therefore go to the two generations
// the write just invalidated (two rebuilds); the other generation's
// revisits go to g-1 (a hit) and to g-j with j from revisitCycle (a
// hit if still cached, a rebuild if evicted). With a cache of three
// artifacts that keeps one low-hit entry to evict whenever a new
// generation is admitted. The issue asked for a write every fourth
// generation; that period needs five artifacts cached to stay clear,
// which a working set of twelve generations is not 3x of.
func buildOverlapChurn(sp *spec, seed int64, scale float64) *instance {
	in := newInstance(sp, scale)
	putTable(in, "test.log", in.rows, midCardColumns(), int64(mix(seed, 1)>>1), 1)
	table, _ := in.fs.Get("test.log")
	tstats := in.cat.Table("test.log")
	// Room for three artifacts (groups x 4 columns x 8 bytes) and
	// not for a fourth.
	ids := groupIDs(table)
	in.cacheBytes = int64(len(ids)) * 32 * 33 / 10

	// Generation g drops the lowest drop*(g+2) group ids present, so
	// its results are its own and its artifact is exactly drop rows
	// smaller than the generation before. share.Cache breaks ties
	// between equally hit entries by benefit per byte, so among those
	// the earliest generation is always the one evicted; the warm-up's
	// generations -2 and -1 sit below generation 0 for that reason.
	// The seed's literal on D changes identity, not content.
	drop := len(ids) / (2 * churnGenerations)
	if drop > 8 {
		drop = 8
	} else if drop < 1 {
		drop = 1
	}
	base := mix(seed, 2) % 997
	where := func(g int) string {
		g = (g + 2) % churnGenerations
		return fmt.Sprintf("C*1000+B*40+A >= %d AND D >= %d", ids[drop*g%len(ids)], base)
	}
	mk := func(g, which int, variant bool, class string) item {
		return newItem(churnScript(where(g), which, variant), class, where(g), churnRef(where(g)), true)
	}
	revisits := make([]int, len(revisitCycle))
	for i, p := range permutation(len(revisitCycle), seed, 4) {
		revisits[i] = revisitCycle[p]
	}
	in.step = func(i int) ([2]item, func()) {
		g, phase := i/4, i%4
		which := int(mix(seed, 3, g) % 2)
		var lanes [2]item
		var write func()
		switch phase {
		case 0:
			lanes = [2]item{mk(g, which, false, classCold), mk(g, 1-which, false, classCold)}
			if g > 0 && g%2 == 0 {
				write = func() {
					in.fs.Put("test.log", table)
					in.cat.Put("test.log", tstats)
				}
			}
		case 1:
			lanes = [2]item{mk(g, 1-which, false, classWarm), mk(g, which, false, classWarm)}
		case 2:
			lanes = [2]item{mk(g, which, true, classWarm), mk(g, 1-which, true, classWarm)}
		default:
			back := [2]int{1, 2}
			if g%2 == 1 {
				back[1] = revisits[(g/2)%len(revisits)]
			}
			for c, j := range back {
				if j > g {
					j = g
				}
				lanes[c] = mk(g-j, int(mix(seed, 5, g, c)%2), false, classRevisit)
			}
		}
		return lanes, write
	}
	// Two far-off generations, one cold and one warm request each:
	// connections, heap and code paths are in use before the clock,
	// and what stays in the cache has a single hit, so it is the
	// first thing evicted.
	for _, g := range []int{-2, -1} {
		in.warmup = append(in.warmup, mk(g, 0, false, classCold), mk(g, 1, false, classWarm))
	}
	in.pool = []item{mk(0, 0, false, classCold), mk(0, 1, false, classCold),
		mk(1, 0, false, classCold), mk(1, 1, false, classCold)}
	return in
}
