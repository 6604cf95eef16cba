// Package mqo implements workload-level multi-query optimization on
// top of the paper's per-script CSE framework: a batch of scripts is
// compiled into one merged AND-OR DAG by unioning the per-script
// memos on subexpression identity (Definition-1 fingerprint plus
// canonical signature), and a global materialization set is chosen
// under a storage budget — each selected subexpression is built once
// by its earliest script and read by every other consumer script,
// even ones that use it only a single time and would never
// materialize it under the session's local admission policy.
//
// Selection follows the greedy benefit/cost heuristic of Roy et al.
// in its lazy "monotone sharing benefit" variant (Kathuria &
// Sudarshan): candidate benefits are kept in a priority queue and
// only the top is re-costed against the currently chosen set, which
// is exact under the monotonicity assumption and a close
// approximation otherwise. An exhaustive enumerator over all subsets
// serves as the test oracle for small DAGs, and the session's own
// per-script admission policy is simulated as the ablation baseline;
// Select returns whichever of greedy and baseline is cheaper, so the
// global choice never loses to local greedy under the same costing.
//
// Enactment reuses the existing sharing machinery end to end: chosen
// keys ride on every run of the batch (share.RunOpts.ForceMaterialize;
// artifacts are owned by "mqo"), builder scripts force-materialize
// them through ordinary spools, and
// consumer scripts pick the artifacts up as CacheScan offers — so an
// enacted batch produces bit-identical results to independent runs.
package mqo

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/share"
	"repro/internal/stats"
)

// Script is one named scope script of the workload batch.
type Script struct {
	Name string
	Src  string
}

// MergedGroup is one node of the merged AND-OR DAG: a subexpression
// identity together with the set of scripts that compute it. Scripts
// is sorted; the first is the designated builder when the group is
// selected for materialization.
type MergedGroup struct {
	Key core.Subexpr
	// Kind names the subexpression's root operator (diagnostics).
	Kind string
	// Scripts are the indices (into DAG.Scripts) of the scripts whose
	// memos contain the subexpression, sorted ascending.
	Scripts []int
	// Rel is the subexpression's estimated statistics, taken from its
	// first occurrence (identical across occurrences by construction —
	// the identity hashes the whole logical subtree).
	Rel stats.Relation
}

// Builder is the script designated to materialize the group: its
// earliest consumer, which runs first in batch order.
func (g *MergedGroup) Builder() int { return g.Scripts[0] }

// Bytes estimates the materialized artifact's size from the
// subexpression's statistics — the quantity the storage budget bounds.
func (g *MergedGroup) Bytes() int64 { return g.Rel.Bytes() }

// DAG is the merged AND-OR DAG of a workload batch.
type DAG struct {
	Scripts []Script
	Cat     *stats.Catalog
	// Groups is the full union, keyed by subexpression identity.
	Groups map[core.Subexpr]*MergedGroup
	// Candidates are the groups appearing in at least two scripts —
	// the only ones whose materialization can beat per-script CSE,
	// which already handles sharing within one script. Sorted by
	// identity (fingerprint, then signature hash) for deterministic
	// selection.
	Candidates []*MergedGroup
}

// BuildDAG compiles every script against cat (share.Compile, CSE on)
// and unions the compiled scripts' sharing identities: the groups
// that could become cache artifacts, keyed as the session cache keys
// them. Algorithm 1's spool insertion changes the fingerprints of
// every ancestor of a shared subexpression, so the identities are
// taken after it, where the compile stage mints them; a DAG keyed on
// raw fingerprints would select groups whose artifacts no consumer
// lookup can ever match.
func BuildDAG(scripts []Script, cat *stats.Catalog) (*DAG, error) {
	if len(scripts) == 0 {
		return nil, fmt.Errorf("mqo: empty workload")
	}
	d := &DAG{Scripts: scripts, Cat: cat, Groups: map[core.Subexpr]*MergedGroup{}}
	for i, sc := range scripts {
		c, err := share.Compile(sc.Src, cat, true)
		if err != nil {
			return nil, fmt.Errorf("mqo: script %q: %w", sc.Name, err)
		}
		for k, key := range c.Subexprs {
			mg, ok := d.Groups[key]
			if !ok {
				g := c.Group(k)
				mg = &MergedGroup{
					Key:  key,
					Kind: g.Exprs[0].Op.Kind().String(),
					Rel:  g.Props.Rel,
				}
				d.Groups[key] = mg
			}
			mg.Scripts = append(mg.Scripts, i)
		}
	}
	for _, mg := range d.Groups {
		if len(mg.Scripts) >= 2 {
			d.Candidates = append(d.Candidates, mg)
		}
	}
	sort.Slice(d.Candidates, func(i, j int) bool {
		a, b := d.Candidates[i], d.Candidates[j]
		if a.Key.FP != b.Key.FP {
			return a.Key.FP < b.Key.FP
		}
		return a.Key.Sig < b.Key.Sig
	})
	return d, nil
}
