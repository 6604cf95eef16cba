package share

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/obs/eventlog"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/stats"
)

// A run is three stages — compile, optimize, execute — and each is a
// function here that needs no session. Session.RunCompiled composes
// them and adds the cache; every other entry point calls them
// directly, so how a script becomes a memo, which of its groups are
// sharing candidates and what their identity is are decided here
// alone.

// Subexpr is the cross-query identity of a shareable subexpression,
// re-exported so the service can fold on it without importing core.
type Subexpr = core.Subexpr

// Compiled is one script bound against a catalog, identified by
// Algorithm 1 when the CSE framework is on, and fingerprinted: the
// compile stage's output and the optimize stage's only input. It is
// single-use: Optimize consumes it (the optimizer mutates the memo it
// holds) and refuses it a second time. It plans against the catalog
// statistics it was bound with: statistics registered between Compile
// and Optimize are not seen.
type Compiled struct {
	// Script is the event-log identity of the source text.
	Script string
	// Subexprs is the identity set of the script's sharing candidates:
	// every live group that could become a cache artifact — all but
	// Extract, Spool, Output and Sequence — identified after
	// Algorithm 1, so it is the identity the cache admits artifacts
	// under. Sorted by canonical signature then fingerprint and
	// deduplicated; a scheduler folds requests on it and a workload
	// planner merges scripts on it.
	Subexprs []Subexpr

	memo   *memo.Memo
	groups []memo.GroupID // groups[i] computes Subexprs[i]
	cse    bool
	used   atomic.Bool
}

// Group returns the memo group that computes Subexprs[i] as bound —
// its root operator and estimated statistics — for a workload planner
// pricing the candidate. Callers must not modify it.
func (c *Compiled) Group(i int) *memo.Group { return c.memo.Group(c.groups[i]) }

// Compile is the compile stage: it parses and binds src against cat,
// runs Algorithm 1 when cse is on (a conventional-baseline run must
// never see its spools), and mints the identities of the sharing
// candidates.
func Compile(src string, cat *stats.Catalog, cse bool) (*Compiled, error) {
	m, err := logical.BuildSource(src, cat)
	if err != nil {
		return nil, err
	}
	if cse {
		core.IdentifyCommonSubexpressions(m)
	}
	fps := core.Fingerprints(m)
	sigs := core.CanonicalSignatures(m)
	var groups []memo.GroupID
	for _, g := range m.Groups() {
		if candidate(g) && fps[g.ID] != 0 {
			groups = append(groups, g.ID)
		}
	}
	// Stable, so of two groups with one identity the lower id stays.
	slices.SortStableFunc(groups, func(a, b memo.GroupID) int {
		return cmp.Or(strings.Compare(sigs[a], sigs[b]), cmp.Compare(fps[a], fps[b]))
	})
	c := &Compiled{Script: eventlog.ScriptID(src), memo: m, cse: cse}
	for _, g := range groups {
		id := core.NewSubexpr(fps[g], sigs[g])
		if n := len(c.Subexprs); n > 0 && c.Subexprs[n-1] == id {
			continue
		}
		c.Subexprs = append(c.Subexprs, id)
		c.groups = append(c.groups, g)
	}
	return c, nil
}

// candidate reports whether a group could become a cache artifact: a
// computation, not a bare scan (two scripts that merely read one file
// share no work) and not plumbing.
func candidate(g *memo.Group) bool {
	switch g.Exprs[0].Op.Kind() {
	case relop.KindExtract, relop.KindSpool, relop.KindOutput, relop.KindSequence:
		return false
	}
	return true
}

// Optimize is the optimize stage: it plans c under o and consumes c.
// It refuses a Compiled it has already planned, and one whose CSE
// setting disagrees with o.EnableCSE: Algorithm 1 ran at compile time
// exactly when the framework is on.
func Optimize(c *Compiled, o opt.Options) (*opt.Result, error) {
	if c.cse != o.EnableCSE {
		return nil, fmt.Errorf("share: script compiled with cse=%v cannot be optimized with cse=%v", c.cse, o.EnableCSE)
	}
	if c.used.Swap(true) {
		return nil, errors.New("share: compiled script already optimized; compile it again")
	}
	return opt.Optimize(c.memo, o)
}

// Execution is what the execute stage observed of one run.
type Execution struct {
	// Outputs holds every OUTPUT file the plan produced, by path (nil
	// for a failed run).
	Outputs map[string]*exec.Table
	// Metrics is the run's metered work, as far as it got.
	Metrics exec.Metrics
	// Analysis is the plan annotated with actual rows and bytes (nil
	// unless Config.Analyze is set).
	Analysis *exec.Analysis
}

// Execute is the execute stage: it runs p on a fresh cluster of
// cfg.Machines partitions over cfg.FS with cfg.Workers, cfg.MemBudget
// and cfg.Tracer, under EXPLAIN ANALYZE when cfg.Analyze is set, and
// publishes the metered totals to cfg.Obs when it is set. A spool
// listed in persist is also written to its path. Catalog, CacheBytes
// and Opt are not read. A failed run returns its Execution beside the
// error; only a cluster that cannot be built returns none.
func Execute(ctx context.Context, p *plan.Node, cfg Config, persist map[plan.SpoolID]string) (*Execution, error) {
	cl, err := exec.NewCluster(cfg.Machines, cfg.FS)
	if err != nil {
		return nil, err
	}
	cl.Workers = cfg.Workers // 0 = one per CPU
	cl.MemBudget = cfg.MemBudget
	cl.Trace = cfg.Tracer
	cl.Obs = cfg.Obs
	cl.PersistSpools = persist
	x := &Execution{}
	if cfg.Analyze {
		var actuals map[*plan.Node]exec.NodeActual
		x.Outputs, actuals, err = cl.RunAnalyzedContext(ctx, p)
		if err == nil {
			x.Analysis = exec.NewAnalysis(p, actuals, 0)
			x.Analysis.MemBudget = cfg.MemBudget
		}
	} else {
		x.Outputs, err = cl.RunContext(ctx, p)
	}
	x.Metrics = cl.Metrics()
	return x, err
}

// RunCold is the three stages with no session and no cache: src
// compiled against cfg.Catalog, optimized under the default options
// (CSE on; cfg.Opt is not read) and executed as cfg describes. It is
// the cold run a shared run's outputs are checked against.
func RunCold(ctx context.Context, src string, cfg Config) (*Execution, error) {
	c, err := Compile(src, cfg.Catalog, true)
	if err != nil {
		return nil, err
	}
	res, err := Optimize(c, opt.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return Execute(ctx, res.Plan, cfg, nil)
}
