package lint_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lint"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/share"
	"repro/internal/stats"
)

// TestP6RebuiltCachedSubexpression: when the optimizer's cache lookup
// hit for a group the plan recomputes, P6 must warn — once per group.
func TestP6RebuiltCachedSubexpression(t *testing.T) {
	res, cfg := optimizeS1(t)
	sp, _ := sharedSpool(t, res.Plan)
	target := sp.Children[0]
	if target.FP == 0 {
		t.Fatal("spool child should carry a fingerprint")
	}
	cfg.CacheHits = map[memo.GroupID]bool{target.Group: true}

	r := lint.AnalyzePlan(res.Plan, cfg)
	found := 0
	for _, d := range r.Diags {
		if d.Code == "P6" {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("P6 fired %d time(s), want exactly 1; findings:\n%s", found, r)
	}
}

// TestP6SilentWithoutCacheOrHit: no hit set, or an empty one, must
// produce no P6 findings.
func TestP6SilentWithoutCacheOrHit(t *testing.T) {
	res, cfg := optimizeS1(t)
	r := lint.AnalyzePlan(res.Plan, cfg)
	for _, d := range r.Diags {
		if d.Code == "P6" {
			t.Fatalf("P6 fired without a hit set: %s", d)
		}
	}
	cfg.CacheHits = map[memo.GroupID]bool{}
	r = lint.AnalyzePlan(res.Plan, cfg)
	for _, d := range r.Diags {
		if d.Code == "P6" {
			t.Fatalf("P6 fired although no lookup hit: %s", d)
		}
	}
}

// TestP6SkipsCacheScans: a plan that already reads the cached result
// through a CacheScan is not "rebuilding" it.
func TestP6SkipsCacheScans(t *testing.T) {
	res, cfg := optimizeS1(t)
	sp, _ := sharedSpool(t, res.Plan)
	target := sp.Children[0]
	// Replace the spool's input with a CacheScan for the same
	// fingerprint, as the optimizer would on a hit.
	sp.Children[0] = &plan.Node{
		Op: &relop.PhysCacheScan{
			Path:    "__cache/x",
			Columns: target.Schema,
			Part:    target.Dlvd.Part,
			Order:   target.Dlvd.Order,
			FP:      target.FP,
		},
		Group:  target.Group,
		CtxKey: target.CtxKey,
		Schema: target.Schema,
		Rel:    target.Rel,
		Dlvd:   target.Dlvd,
		FP:     target.FP,
	}
	cfg.CacheHits = map[memo.GroupID]bool{target.Group: true}
	// The mutation can upset other analyzers (cost coherence); only
	// P6's behavior is under test.
	r := lint.AnalyzePlan(res.Plan, cfg)
	for _, d := range r.Diags {
		if d.Code == "P6" {
			t.Fatalf("P6 flagged a plan that reads the cache: %s", d)
		}
	}
}

// TestP4TreatsCacheScanAsSharingFrontier: identical consumer
// pipelines above two reads of one cached artifact are compensation,
// not a missed CSE.
func TestP4TreatsCacheScanAsSharingFrontier(t *testing.T) {
	res, cfg := optimizeS1(t)
	sp, parents := sharedSpool(t, res.Plan)
	target := sp.Children[0]
	cs := &plan.Node{
		Op: &relop.PhysCacheScan{
			Path:    "__cache/x",
			Columns: target.Schema,
			Part:    target.Dlvd.Part,
			Order:   target.Dlvd.Order,
			FP:      target.FP,
		},
		Group:  sp.Group,
		CtxKey: sp.CtxKey,
		Schema: sp.Schema,
		Rel:    sp.Rel,
		Dlvd:   sp.Dlvd,
		FP:     target.FP,
	}
	// Give every consumer its own CacheScan instance: without the
	// frontier exemption, identical sibling reads would look like a
	// missed CSE to P4.
	for _, p := range parents {
		for i, c := range p.Children {
			if c == sp {
				cp := *cs
				p.Children[i] = &cp
			}
		}
	}
	r := lint.AnalyzePlan(res.Plan, lint.PlanConfig{CSE: true, Model: cfg.Model})
	for _, d := range r.Diags {
		if d.Code == "P4" {
			t.Fatalf("P4 flagged cache reads as a missed CSE: %s", d)
		}
	}
}

// p6Cat is the catalog the end-to-end P6 tests plan against.
func p6Cat() *stats.Catalog {
	cat := stats.NewCatalog()
	cat.Put("p6.log", &stats.TableStats{Rows: 2_000_000_000, Columns: map[string]stats.ColumnStats{
		"A": {Distinct: 100, AvgBytes: 8},
		"B": {Distinct: 50, AvgBytes: 8},
		"D": {Distinct: 1 << 40, AvgBytes: 8},
	}})
	return cat
}

// p6Script shares one aggregation over a filter between two
// consumers; the filter's constant is the only thing two instances of
// it differ in.
func p6Script(k int) string {
	return fmt.Sprintf(`
R0 = EXTRACT A,B,D FROM "p6.log" USING LogExtractor;
F = SELECT A,B,Sum(D) as S FROM R0 WHERE A > %d GROUP BY A,B;
R1 = SELECT A,Sum(S) as S1 FROM F GROUP BY A;
R2 = SELECT B,Sum(S) as S2 FROM F GROUP BY B;
OUTPUT R1 TO "r1.out";
OUTPUT R2 TO "r2.out";
`, k)
}

// TestP6SilentOnFingerprintCollision: two filtered aggregations
// differing only in the filter's constant share a Definition-1
// fingerprint but not a signature.
// With the cache warmed by one, planning the other recomputes a
// subexpression the cache does not hold, and P6 must stay silent. A
// fingerprint-only probe reported it as a rebuilt cached result.
func TestP6SilentOnFingerprintCollision(t *testing.T) {
	cat := p6Cat()
	fs := exec.NewFileStore()
	rows := &exec.Table{Schema: relop.Schema{
		{Name: "A", Type: relop.TInt}, {Name: "B", Type: relop.TInt}, {Name: "D", Type: relop.TInt}}}
	for i := int64(0); i < 200; i++ {
		rows.Rows = append(rows.Rows, relop.Row{relop.IntVal(i % 7), relop.IntVal(i % 5), relop.IntVal(i)})
	}
	fs.Put("p6.log", rows)
	o := opt.DefaultOptions()
	o.Lint = true
	s, err := share.NewSession(share.Config{Catalog: cat, FS: fs, Machines: 8, Opt: &o})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Run(p6Script(2))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Admitted == 0 {
		t.Fatal("warm-up admitted nothing; the collision needs a cached aggregation")
	}
	rep, err := s.Run(p6Script(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 {
		t.Fatalf("A > 3 was served from A > 2's artifact (%d hits)", rep.CacheHits)
	}
	for _, d := range rep.Lint {
		if d.Code == "P6" {
			t.Errorf("P6 fired on a fingerprint collision: %s", d)
		}
	}
}

// serialCache holds one artifact, of the subexpression with signature
// sig, laid out on a single machine: reading billions of rows serially
// loses to a parallel rebuild, so the lookup hits and the plan still
// recomputes.
type serialCache struct{ sig string }

func (c serialCache) Lookup(_ core.Subexpr, sig string, schema relop.Schema) (opt.CacheEntry, bool) {
	if sig != c.sig {
		return opt.CacheEntry{}, false
	}
	return opt.CacheEntry{Path: "__cache/serial", Schema: schema,
		Part: props.Partitioning{Kind: props.PartSerial}}, true
}

// TestP6WarnsOnTrueRebuild: when the search's lookup hit and the plan
// recomputes that very subexpression anyway, P6 still warns.
func TestP6WarnsOnTrueRebuild(t *testing.T) {
	cat := p6Cat()
	build := func(cache opt.ResultCache) *opt.Result {
		t.Helper()
		m, err := logical.BuildSource(p6Script(2), cat)
		if err != nil {
			t.Fatal(err)
		}
		o := opt.DefaultOptions()
		o.Lint, o.Cache = true, cache
		res, err := opt.Optimize(m, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := build(nil)
	filters := plan.FindAll(cold.Plan, relop.KindPhysFilter)
	if len(filters) != 1 {
		t.Fatalf("cold plan has %d filters, want 1", len(filters))
	}

	// The filter group's signature, minted as the optimizer mints it:
	// after identification, on the same script's memo.
	m, err := logical.BuildSource(p6Script(2), cat)
	if err != nil {
		t.Fatal(err)
	}
	core.IdentifyCommonSubexpressions(m)
	res := build(serialCache{sig: core.CanonicalSignatures(m)[filters[0].Group]})
	if n := len(plan.FindAll(res.Plan, relop.KindCacheScan)); n != 0 {
		t.Fatalf("the serial artifact won (%d CacheScans); the test needs a rebuild", n)
	}
	var found []lint.Diagnostic
	for _, d := range res.Lint {
		if d.Code == "P6" {
			found = append(found, d)
		}
	}
	if len(found) != 1 {
		t.Errorf("P6 findings on a true rebuild = %v, want one", found)
	}
}
