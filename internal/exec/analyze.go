package exec

import (
	"fmt"
	"strings"

	"repro/internal/plan"
)

// EXPLAIN ANALYZE support: RunAnalyzedContext records what each plan node
// actually produced; Analysis pairs those actuals with the
// optimizer's estimates (plan.Node.Rel) and flags the nodes whose
// estimate missed by more than a threshold. Estimate accuracy is
// scored by q-error — the standard factor-off metric, symmetric
// between over- and under-estimation — with +1 smoothing so empty
// results compare sanely.

// NodeActual is what one plan node actually produced during a
// RunAnalyzedContext execution: output rows and logical bytes (one copy of
// the data; spools record their materialized size).
type NodeActual struct {
	Rows  int64
	Bytes int64
}

// DefaultMisestimateThreshold flags estimates more than 4x off in
// either direction — past that, join-order and exchange decisions
// made from the estimate stop being trustworthy.
const DefaultMisestimateThreshold = 4.0

// QError is the factor by which an estimate missed:
// (max+1)/(min+1) over the estimated and actual value, so 1.0 is
// exact and the metric is symmetric between over- and
// under-estimation. The +1 smoothing keeps zero-row results finite.
func QError(est, act int64) float64 {
	if est < 0 {
		est = 0
	}
	if act < 0 {
		act = 0
	}
	lo, hi := est, act
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi+1) / float64(lo+1)
}

// Analysis is an EXPLAIN ANALYZE report over one executed plan.
type Analysis struct {
	Root    *plan.Node
	Actuals map[*plan.Node]NodeActual
	// Threshold is the q-error above which a node is flagged as
	// mis-estimated.
	Threshold float64
	// MemBudget records the memory budget the actuals were collected
	// under. When non-zero the rendered analysis leads with a
	// "membudget=..." header, so an EXPLAIN ANALYZE readout whose
	// operators may have spilled says so.
	MemBudget int64
}

// NewAnalysis pairs a plan with the actuals recorded by RunAnalyzedContext.
// threshold <= 1 selects DefaultMisestimateThreshold.
func NewAnalysis(root *plan.Node, actuals map[*plan.Node]NodeActual, threshold float64) *Analysis {
	if threshold <= 1 {
		threshold = DefaultMisestimateThreshold
	}
	return &Analysis{Root: root, Actuals: actuals, Threshold: threshold}
}

// NodeQ returns the row q-error of n, and whether an actual was
// recorded for it.
func (a *Analysis) NodeQ(n *plan.Node) (float64, bool) {
	act, ok := a.Actuals[n]
	if !ok {
		return 0, false
	}
	return QError(n.Rel.Rows, act.Rows), true
}

// flagged reports whether n's row estimate missed by more than the
// threshold. Sequence nodes produce no rows and are never flagged.
func (a *Analysis) flagged(n *plan.Node) bool {
	if len(n.Schema) == 0 {
		return false
	}
	q, ok := a.NodeQ(n)
	return ok && q > a.Threshold
}

// Summary aggregates estimate accuracy over every node with a
// recorded actual (Sequence statement lists excluded: they produce no
// rows).
type Summary struct {
	// Nodes is the number of scored plan nodes; Flagged of those
	// exceeded the threshold.
	Nodes   int
	Flagged int
	// MeanQ and MaxQ describe the row q-error distribution.
	MeanQ float64
	MaxQ  float64
}

// Summary computes aggregate estimate accuracy for the analyzed plan.
// Shared nodes (spools reached through several consumers) score once.
func (a *Analysis) Summary() Summary {
	var s Summary
	var total float64
	for _, n := range a.nodes() {
		q, ok := a.NodeQ(n)
		if !ok || len(n.Schema) == 0 {
			continue
		}
		s.Nodes++
		total += q
		if q > s.MaxQ {
			s.MaxQ = q
		}
		if a.flagged(n) {
			s.Flagged++
		}
	}
	if s.Nodes > 0 {
		s.MeanQ = total / float64(s.Nodes)
	}
	return s
}

// nodes returns the distinct plan nodes in deterministic (DFS,
// children in order, shared nodes once) order.
func (a *Analysis) nodes() []*plan.Node {
	var out []*plan.Node
	seen := map[*plan.Node]bool{}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(a.Root)
	return out
}

// String renders the plan tree annotated per node with estimated
// versus actual rows and bytes, the row q-error, and a MISESTIMATE
// marker on nodes past the threshold, followed by the accuracy
// summary.
func (a *Analysis) String() string {
	var b strings.Builder
	if a.MemBudget != 0 {
		fmt.Fprintf(&b, "membudget=%d\n", a.MemBudget)
	}
	seen := map[plan.SpoolID]bool{}
	var walk func(n *plan.Node, prefix string, last, top bool)
	walk = func(n *plan.Node, prefix string, last, top bool) {
		connector, childPrefix := "", ""
		if !top {
			if last {
				connector = prefix + "└── "
				childPrefix = prefix + "    "
			} else {
				connector = prefix + "├── "
				childPrefix = prefix + "│   "
			}
		}
		if n.IsSpool() {
			k := n.SpoolID()
			if seen[k] {
				fmt.Fprintf(&b, "%s%s (shared, see above)\n", connector, n.Op)
				return
			}
			seen[k] = true
		}
		ann := "[rows est=? actual=?]"
		if act, ok := a.Actuals[n]; ok {
			ann = fmt.Sprintf("[rows est=%d actual=%d | bytes est=%d actual=%d | q=%.2f]",
				n.Rel.Rows, act.Rows, n.Rel.Bytes(), act.Bytes, QError(n.Rel.Rows, act.Rows))
			if a.flagged(n) {
				ann += " MISESTIMATE"
			}
		}
		fmt.Fprintf(&b, "%s%s  %s\n", connector, n.Op, ann)
		for i, ch := range n.Children {
			walk(ch, childPrefix, i == len(n.Children)-1, false)
		}
	}
	walk(a.Root, "", true, true)
	s := a.Summary()
	fmt.Fprintf(&b, "analyze: nodes=%d flagged=%d mean_q=%.2f max_q=%.2f threshold=%.1f\n",
		s.Nodes, s.Flagged, s.MeanQ, s.MaxQ, a.Threshold)
	return b.String()
}
