package lint

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/relop"
)

// PlanConfig parameterizes one plan-analysis run.
type PlanConfig struct {
	// CSE records that the plan was optimized with the
	// common-subexpression framework enabled; the missed-CSE analyzer
	// (P4) only applies then.
	CSE bool
	// Consolidated records that the plan is a phase-2 winner with the
	// full optimization budget: every shared group was pinned to a
	// single property set, so the strict sharing invariants (P1, P2,
	// and the cost-dominance half of P3) apply. A phase-1 winner may
	// legitimately materialize one shared group under several
	// optimization contexts — that is exactly the inefficiency the
	// paper's phase 2 exists to remove — so those checks are skipped
	// for it.
	Consolidated bool
	// Model prices spool reads for the cost-coherence analyzer; the
	// default cluster model is used when nil.
	Model *cost.Model
	// Memo, when available, lets analyzers name shared groups
	// precisely; all checks degrade gracefully without it.
	Memo *memo.Memo
	// CacheHits is the set of memo groups whose session-cache lookup
	// hit while the optimizer searched for this plan: the cache held a
	// valid artifact of exactly that subexpression and the search saw
	// it. The rebuilt-cached-subexpression analyzer (P6) checks the
	// plan against it.
	CacheHits map[memo.GroupID]bool
	// WorkloadCovered, when non-nil, reports whether a workload-level
	// materialization set (the chosen set of an MQO selection) covers a
	// fingerprint this plan was expected to consume via CacheScan. The
	// rebuilt-workload-subexpression analyzer (P7) only applies then.
	// Callers must exclude fingerprints the plan itself is designated
	// to build — the builder legitimately computes its own artifact.
	WorkloadCovered func(fp uint64) bool
	// ForcedFPs marks subexpressions whose materialization was forced
	// by a workload-level pin (opt.Options.ForceMaterialize): their
	// spools may legitimately have a single in-plan consumer — the
	// other consumers live in different scripts of the batch — so the
	// P3 read-multiplicity check skips them.
	ForcedFPs map[uint64]bool
	// Rounds, when available, carries the phase-2 round traces that
	// produced the plan so the cost-coherence analyzer (P3) can check
	// the branch-and-bound bookkeeping: a pruned round's recorded cost
	// must be +Inf (its exact cost was never computed), and the round
	// selected as Best must be a completed one.
	Rounds []RoundCost
}

// RoundCost is the lint-facing view of one phase-2 round trace.
type RoundCost struct {
	// Cost is the round's recorded DAG-aware cost (+Inf when the round
	// was pruned or infeasible).
	Cost float64
	// Pruned marks a round aborted by the branch-and-bound cost bound.
	Pruned bool
	// Fallback marks the synthetic trace emitted when no evaluated
	// round produced a plan.
	Fallback bool
	// Best marks the round whose plan was kept.
	Best bool
}

// PlanAnalyzer is one named global-invariant check over an optimized
// plan DAG.
type PlanAnalyzer struct {
	// Name is the analyzer's short kebab-case name.
	Name string
	// Code is the stable diagnostic code every finding carries.
	Code string
	// Doc is a one-line description for catalogs and CLI help.
	Doc string
	run func(c *planCtx)
}

// planCtx is the shared traversal state handed to each analyzer.
type planCtx struct {
	cfg    PlanConfig
	root   *plan.Node
	nodes  []*plan.Node // distinct nodes, parents before children
	paths  map[*plan.Node]string
	parent map[*plan.Node][]*plan.Node // one entry per incoming edge
	report *Report
}

func (c *planCtx) addf(a *PlanAnalyzer, sev Severity, n *plan.Node, format string, args ...any) {
	pos := ""
	if n != nil {
		pos = c.paths[n]
	}
	c.report.Addf(a.Code, a.Name, sev, pos, format, args...)
}

// PlanAnalyzers returns the plan-analyzer catalog in code order.
func PlanAnalyzers() []*PlanAnalyzer {
	return []*PlanAnalyzer{
		{Name: "single-spool", Code: "P1",
			Doc: "every shared group is consumed through exactly one Spool materialization",
			run: runSingleSpool},
		{Name: "pin-consistency", Code: "P2",
			Doc: "the same pinned physical property set reaches a shared group on every consumer path",
			run: runPinConsistency},
		{Name: "cost-coherence", Code: "P3",
			Doc: "DAG cost charges each spool once plus one read per consumer and never exceeds tree cost",
			run: runCostCoherence},
		{Name: "missed-cse", Code: "P4",
			Doc: "no two distinct subplans compute the same expression when CSE is enabled",
			run: runMissedCSE},
		{Name: "redundant-enforcer", Code: "P5",
			Doc: "no exchange over an already-satisfying partitioning and no sort over already-sorted input",
			run: runRedundantEnforcer},
		{Name: "rebuilt-cached-subexpression", Code: "P6",
			Doc: "no subplan recomputes a subexpression whose materialized result the active session cache holds",
			run: runRebuiltCached},
		{Name: "rebuilt-workload-subexpression", Code: "P7",
			Doc: "no subplan recomputes a subexpression the workload's chosen materialization set covers",
			run: runRebuiltWorkload},
	}
}

// AnalyzePlan runs every plan analyzer over root and returns the
// sorted report.
func AnalyzePlan(root *plan.Node, cfg PlanConfig) *Report {
	r := &Report{}
	if root == nil {
		return r
	}
	c := &planCtx{
		cfg:    cfg,
		root:   root,
		nodes:  plan.Operators(root),
		paths:  PlanPaths(root),
		parent: map[*plan.Node][]*plan.Node{},
		report: r,
	}
	for _, n := range c.nodes {
		for _, ch := range n.Children {
			c.parent[ch] = append(c.parent[ch], n)
		}
	}
	for _, a := range PlanAnalyzers() {
		a.run(c)
	}
	r.Sort()
	return r
}

// PlanPaths computes a human-readable operator path for every distinct
// node of the DAG: the chain of operator kinds from the root on the
// node's first-discovered path, suffixed with the node's memo group —
// e.g. "Sequence/Output/HashAgg(G14)". Validation and the plan
// analyzers share it as their location scheme.
func PlanPaths(root *plan.Node) map[*plan.Node]string {
	paths := map[*plan.Node]string{}
	var walk func(n *plan.Node, prefix string)
	walk = func(n *plan.Node, prefix string) {
		if _, seen := paths[n]; seen {
			return
		}
		name := n.Op.Kind().String()
		if prefix != "" {
			name = prefix + "/" + name
		}
		paths[n] = fmt.Sprintf("%s(G%d)", name, n.Group)
		for _, c := range n.Children {
			walk(c, name)
		}
	}
	walk(root, "")
	return paths
}

// spoolsByGroup buckets the distinct Spool nodes by memo group.
func (c *planCtx) spoolsByGroup() (groups []int64, byGroup map[int64][]*plan.Node) {
	byGroup = map[int64][]*plan.Node{}
	for _, n := range c.nodes {
		if n.IsSpool() {
			g := int64(n.Group)
			if len(byGroup[g]) == 0 {
				groups = append(groups, g)
			}
			byGroup[g] = append(byGroup[g], n)
		}
	}
	return groups, byGroup
}

// runSingleSpool is P1: a shared group must be materialized by exactly
// one Spool node per optimization context. Two distinct nodes under
// the *same* context mean the winner cache handed out duplicate
// materializations (the DAG cost model would silently charge them as
// one). Consumer counting is P3's job: a spool's effective read count
// is its DAG path multiplicity, not its parent-edge count — a single
// pointer-shared consumer (e.g. one UNION input used twice) reads the
// spool twice.
func runSingleSpool(c *planCtx) {
	a := PlanAnalyzers()[0]
	groups, byGroup := c.spoolsByGroup()
	for _, g := range groups {
		byKey := map[plan.SpoolID][]*plan.Node{}
		for _, n := range byGroup[g] {
			byKey[n.SpoolID()] = append(byKey[n.SpoolID()], n)
		}
		for _, same := range byKey {
			if len(same) > 1 {
				c.addf(a, Error, same[0],
					"shared group G%d is materialized by %d distinct Spool nodes under one context %q; the DAG cost model charges them as one",
					g, len(same), same[0].CtxKey)
			}
		}
	}
}

// runPinConsistency is P2: in a consolidated plan every path from the
// LCA down to a shared group enforces the same pinned property set, so
// all Spool materializations of one group must agree on optimization
// context and delivered physical properties.
func runPinConsistency(c *planCtx) {
	a := PlanAnalyzers()[1]
	if !c.cfg.Consolidated {
		return
	}
	groups, byGroup := c.spoolsByGroup()
	for _, g := range groups {
		nodes := byGroup[g]
		first := nodes[0]
		for _, n := range nodes[1:] {
			if n.CtxKey != first.CtxKey {
				c.addf(a, Error, n,
					"shared group G%d is consumed under conflicting pinned contexts %q and %q; phase 2 must enforce one property set on every LCA→shared-group path",
					g, first.CtxKey, n.CtxKey)
				continue
			}
			if !n.Dlvd.Part.Equal(first.Dlvd.Part) || !n.Dlvd.Order.Equal(first.Dlvd.Order) {
				c.addf(a, Error, n,
					"shared group G%d delivers %v on one consumer path but %v on another under the same context %q",
					g, first.Dlvd, n.Dlvd, n.CtxKey)
			}
		}
	}
}

// runCostCoherence is P3: the DAG cost must charge each distinct spool
// materialization once plus one read per consumer. Concretely: a plan
// without spools has equal tree and DAG costs; a consolidated plan's
// DAG cost never exceeds its tree cost (sharing can only help once
// every spool has at least two consumers); and every materialization
// is read at least twice under DAG execution semantics.
func runCostCoherence(c *planCtx) {
	a := PlanAnalyzers()[2]
	for i, r := range c.cfg.Rounds {
		if r.Pruned && !math.IsInf(r.Cost, 1) {
			c.addf(a, Error, nil,
				"round %d is marked pruned but records finite cost %.1f; a pruned round's exact cost is unknown and must be recorded as +Inf",
				i, r.Cost)
		}
		if r.Best && r.Pruned && !r.Fallback {
			c.addf(a, Error, nil,
				"round %d is marked best but was pruned; the kept plan must come from a completed round",
				i)
		}
	}
	model := cost.NewModel(cost.DefaultCluster())
	if c.cfg.Model != nil {
		model = *c.cfg.Model
	}
	dag := plan.DAGCost(c.root, model)
	tree := plan.TreeCost(c.root)
	groups, _ := c.spoolsByGroup()
	const eps = 1e-9
	if len(groups) == 0 {
		if diff := math.Abs(dag - tree); diff > eps*math.Max(1, tree) {
			c.addf(a, Error, c.root,
				"plan has no spools but DAG cost %.1f differs from tree cost %.1f; costs must coincide without sharing",
				dag, tree)
		}
		return
	}
	// A workload-forced materialization deliberately costs this plan
	// more than recomputing (build + spool read for one consumer); the
	// payoff lives in other scripts, so dominance only holds unforced.
	if c.cfg.Consolidated && len(c.cfg.ForcedFPs) == 0 && dag > tree*(1+eps) {
		c.addf(a, Error, c.root,
			"DAG cost %.1f exceeds tree cost %.1f; a consolidated shared plan must never cost more than recomputing every consumer",
			dag, tree)
	}
	if !c.cfg.Consolidated {
		return
	}
	// Reads per materialization, mirroring plan.DAGCost's reference
	// multiplicities: each distinct spool subtree is entered once, all
	// other operators propagate their parents' multiplicity.
	reads := map[plan.SpoolID]float64{}
	repr := map[plan.SpoolID]*plan.Node{}
	em := map[*plan.Node]float64{c.root: 1}
	seen := map[plan.SpoolID]bool{}
	for _, n := range c.nodes {
		e := em[n]
		if e == 0 {
			continue
		}
		if n.IsSpool() {
			k := n.SpoolID()
			reads[k] += e
			if repr[k] == nil {
				repr[k] = n
			}
			if !seen[k] {
				seen[k] = true
				for _, ch := range n.Children {
					em[ch]++
				}
			}
			continue
		}
		for _, ch := range n.Children {
			em[ch] += e
		}
	}
	for k, r := range reads {
		if r < 2 {
			// A workload-forced spool is built for consumers in *other*
			// scripts of the batch; one in-plan read is legitimate.
			if n := repr[k]; len(n.Children) == 1 && c.cfg.ForcedFPs[n.Children[0].FP] {
				continue
			}
			c.addf(a, Error, repr[k],
				"spool materialization of shared group G%d is read %g time(s) under DAG semantics; sharing requires at least two consumers",
				repr[k].Group, r)
		}
	}
}

// computationRoot reports whether a node's operator performs relational
// computation that Algorithm 1 would have deduplicated. Enforcers
// (Sort, Repartition), Spools, and terminal side-effecting operators
// are excluded from missed-CSE comparison: consumer-side compensation
// legitimately repeats an enforcer above a shared spool on every path
// (the Fig. 8(b) local re-sorts). Local-phase aggregates are excluded
// for the same reason — phase splitting is a physical implementation
// choice, so two differently-keyed global aggregates may lower to
// identical local pre-aggregation stages without any logical common
// subexpression existing for Algorithm 1 to merge.
func computationRoot(n *plan.Node) bool {
	switch op := n.Op.(type) {
	case *relop.Sort, *relop.Repartition, *relop.PhysSpool,
		*relop.PhysOutput, *relop.PhysSequence, *relop.PhysCacheScan:
		return false
	case *relop.StreamAgg:
		return op.Phase != relop.AggLocal
	case *relop.HashAgg:
		return op.Phase != relop.AggLocal
	}
	return true
}

// runMissedCSE is P4: with CSE enabled, no two distinct subplans may
// compute the same expression — Algorithm 1 should have merged them
// into one shared group. Subtrees are fingerprinted structurally
// (operator signature over child fingerprints, order-sensitive) and
// colliding fingerprints are deep-compared before reporting, mirroring
// core.Fingerprints over the memo.
func runMissedCSE(c *planCtx) {
	a := PlanAnalyzers()[3]
	if !c.cfg.CSE {
		return
	}
	fp := map[*plan.Node]uint64{}
	var fingerprint func(n *plan.Node) uint64
	fingerprint = func(n *plan.Node) uint64 {
		if v, ok := fp[n]; ok {
			return v
		}
		h := fnv.New64a()
		h.Write([]byte(n.Op.Sig()))
		for _, ch := range n.Children {
			var buf [8]byte
			v := fingerprint(ch)
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		v := h.Sum64()
		fp[n] = v
		return v
	}
	// Only spool-free subtrees participate: a subplan that reads a
	// spool sits above the sharing frontier, where each consumer
	// independently compensates toward its own requirements —
	// coinciding pipelines there are not missed sharing opportunities.
	// CacheScans count as a sharing frontier too: the subexpression
	// was shared across queries rather than within this one.
	hasSpool := map[*plan.Node]bool{}
	for i := len(c.nodes) - 1; i >= 0; i-- { // children before parents
		n := c.nodes[i]
		s := n.IsSpool() || n.Op.Kind() == relop.KindCacheScan
		for _, ch := range n.Children {
			s = s || hasSpool[ch]
		}
		hasSpool[n] = s
	}
	buckets := map[uint64][]*plan.Node{}
	for _, n := range c.nodes {
		fingerprint(n)
		if computationRoot(n) && !hasSpool[n] {
			buckets[fp[n]] = append(buckets[fp[n]], n)
		}
	}
	var structEq func(x, y *plan.Node) bool
	structEq = func(x, y *plan.Node) bool {
		if x == y {
			return true
		}
		if x.Op.Sig() != y.Op.Sig() || len(x.Children) != len(y.Children) {
			return false
		}
		for i := range x.Children {
			if !structEq(x.Children[i], y.Children[i]) {
				return false
			}
		}
		return true
	}
	// Report only maximal duplicated subtrees: members of an already
	// reported class shadow their descendants (which are necessarily
	// duplicated too).
	shadowed := map[*plan.Node]bool{}
	var shadow func(n *plan.Node)
	shadow = func(n *plan.Node) {
		for _, ch := range n.Children {
			if !shadowed[ch] {
				shadowed[ch] = true
				shadow(ch)
			}
		}
	}
	for _, n := range c.nodes { // topo order: parents first
		bucket := buckets[fp[n]]
		if len(bucket) < 2 || shadowed[n] {
			continue
		}
		var class []*plan.Node
		for _, m := range bucket {
			if m != n && structEq(n, m) && !shadowed[m] {
				class = append(class, m)
			}
		}
		if len(class) == 0 {
			continue
		}
		c.addf(a, Error, n,
			"subplan %q is computed independently by %d other plan node(s) (e.g. at %s); identical expressions must share one spool when CSE is on",
			n.Op.Sig(), len(class), c.paths[class[0]])
		shadow(n)
		for _, m := range class {
			shadowed[m] = true
			shadow(m)
		}
	}
}

// runRebuiltCached is P6: when the optimizer's cache lookup for a
// subexpression hit, a plan that recomputes that subexpression from
// scratch left cross-query sharing on the table. The optimizer's
// CacheScan candidate loses legitimately when the cached layout needs
// expensive compensation, so this is a warning, not an error.
// Enforcers, spools, terminal operators, and CacheScans themselves are
// skipped; each group is reported once at its topmost occurrence.
func runRebuiltCached(c *planCtx) {
	a := PlanAnalyzers()[5]
	seen := map[memo.GroupID]bool{}
	for _, n := range c.nodes { // topo order: parents first
		if !computationRoot(n) || seen[n.Group] {
			continue
		}
		seen[n.Group] = true
		if c.cfg.CacheHits[n.Group] {
			c.addf(a, Warning, n,
				"subplan %q (fp=%x) is recomputed although the session cache holds its materialized result",
				n.Op.Sig(), n.FP)
		}
	}
}

// runRebuiltWorkload is P7: when a workload-level MQO selection chose
// a subexpression for materialization, an enacted per-script plan that
// recomputes it from scratch defeats the global decision — the builder
// paid the persist cost and this consumer ignores the artifact. It
// generalizes P6 from "the session cache happens to hold it" to "the
// workload's chosen set is supposed to cover it". Like P6 this is a
// warning: the CacheScan candidate can lose legitimately when the
// recorded layout needs expensive compensation. The spool funneling a
// forced build of the subexpression itself is exempt via ForcedFPs
// semantics at the caller (WorkloadCovered excludes the plan's own
// build targets).
func runRebuiltWorkload(c *planCtx) {
	a := PlanAnalyzers()[6]
	if c.cfg.WorkloadCovered == nil {
		return
	}
	seen := map[uint64]bool{}
	for _, n := range c.nodes { // topo order: parents first
		if !computationRoot(n) || n.FP == 0 || seen[n.FP] {
			continue
		}
		seen[n.FP] = true
		if c.cfg.WorkloadCovered(n.FP) {
			c.addf(a, Warning, n,
				"subplan %q (fp=%x) is recomputed although the workload's chosen materialization set covers it",
				n.Op.Sig(), n.FP)
		}
	}
}

// runRedundantEnforcer is P5: an exchange whose input already
// satisfies the target partitioning, or a sort whose input is already
// sorted, does nothing but burn cluster time — the classic silent cost
// regression of a sharing bug.
func runRedundantEnforcer(c *planCtx) {
	a := PlanAnalyzers()[4]
	for _, n := range c.nodes {
		switch op := n.Op.(type) {
		case *relop.Sort:
			if len(n.Children) == 1 && n.Children[0].Dlvd.Order.Satisfies(op.Order) {
				c.addf(a, Warning, n,
					"redundant sort: input already delivers order %v satisfying %v",
					n.Children[0].Dlvd.Order, op.Order)
			}
		case *relop.Repartition:
			if len(n.Children) == 1 && n.Children[0].Dlvd.Part.Satisfies(op.To) {
				c.addf(a, Warning, n,
					"redundant exchange: input partitioning %v already satisfies %v",
					n.Children[0].Dlvd.Part, op.To)
			}
		}
	}
}
