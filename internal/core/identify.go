package core

import (
	"sort"

	"repro/internal/memo"
	"repro/internal/relop"
)

// IdentifyCommonSubexpressions is Algorithm 1: it marks the root
// groups of all common subexpressions in the memo as shared, funneling
// every set of consumers through a single Spool group.
//
//  1. Explicitly shared groups (a group referenced by two or more
//     parent groups, like node 2 of the motivating script) are wrapped
//     in a Spool directly.
//  2. Structurally equal but distinct subexpressions (the same query
//     text written twice) are found via fingerprints: colliding
//     fingerprints are deep-compared, duplicates are merged into one
//     group, and consumers are redirected to a Spool on the survivor.
//
// The function returns the ids of the Spool groups marked shared. It
// runs once per memo: on a memo it has already identified it only
// returns them.
func IdentifyCommonSubexpressions(m *memo.Memo) []memo.GroupID {
	if !m.Identified() {
		spoolOf := map[memo.GroupID]memo.GroupID{}
		identifyExplicit(m, spoolOf)
		mergeDuplicates(m, spoolOf)
		garbageCollect(m)
		m.MarkIdentified()
	}

	var shared []memo.GroupID
	for _, g := range m.SharedGroups() {
		shared = append(shared, g.ID)
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i] < shared[j] })
	return shared
}

// spoolable reports whether a group may be wrapped in a Spool: it
// must produce rows (not a terminal Output/Sequence) and not already
// be a Spool.
func spoolable(g *memo.Group) bool {
	switch g.Exprs[0].Op.Kind() {
	case relop.KindSpool, relop.KindOutput, relop.KindSequence:
		return false
	}
	return true
}

// wrapSpool inserts a Spool group above g and redirects all of g's
// consumers to it (Alg. 1 lines 8–9).
func wrapSpool(m *memo.Memo, g memo.GroupID, spoolOf map[memo.GroupID]memo.GroupID) memo.GroupID {
	sp := m.Insert(&relop.Spool{}, []memo.GroupID{g}, m.Group(g).Props)
	m.Redirect(g, sp, sp)
	m.Group(sp).Shared = true
	spoolOf[g] = sp
	if m.Root == g {
		m.Root = sp
	}
	return sp
}

// ForceSpool wraps a live, spoolable group in a shared Spool even
// though Algorithm 1 found too few consumers to justify one. The
// workload-level optimizer (internal/mqo) uses it to pin a
// materialization whose extra consumers live in *other* scripts of the
// batch: within this script's memo the group may have a single parent,
// so garbageCollect would have elided (or never inserted) the spool.
// It returns the new Spool group's id, or memo.NoGroup when g cannot
// be wrapped (dead, not spoolable, or already funneled through a
// Spool).
func ForceSpool(m *memo.Memo, g memo.GroupID) memo.GroupID {
	gr := m.Group(g)
	if gr.Dead || !spoolable(gr) {
		return memo.NoGroup
	}
	for _, p := range m.Parents(g) {
		if m.Group(p).Exprs[0].Op.Kind() == relop.KindSpool {
			// Already consumed through a spool; marking it shared is
			// enough to guarantee the materialization exists.
			m.Group(p).Shared = true
			return p
		}
	}
	return wrapSpool(m, g, map[memo.GroupID]memo.GroupID{})
}

// identifyExplicit is the routine IdentifyExplicitCommSubexpr: every
// group directly referenced by more than one parent group gets a
// shared Spool.
func identifyExplicit(m *memo.Memo, spoolOf map[memo.GroupID]memo.GroupID) {
	// Snapshot ids first: wrapping mutates the group list.
	var ids []memo.GroupID
	for _, g := range m.Groups() {
		ids = append(ids, g.ID)
	}
	for _, id := range ids {
		g := m.Group(id)
		if g.Dead || !spoolable(g) {
			continue
		}
		if len(m.Parents(id)) > 1 {
			wrapSpool(m, id, spoolOf)
		}
	}
}

// mergeDuplicates finds structurally equal subexpressions via
// fingerprints and merges each equivalence class into a single shared
// Spool (Alg. 1 lines 2–11).
func mergeDuplicates(m *memo.Memo, spoolOf map[memo.GroupID]memo.GroupID) {
	fps := Fingerprints(m)
	// Bucket live, mergeable groups by fingerprint.
	buckets := map[uint64][]memo.GroupID{}
	for _, g := range m.Groups() {
		if !mergeable(g) {
			continue
		}
		fp := fps[g.ID]
		buckets[fp] = append(buckets[fp], g.ID)
	}
	// Deterministic bucket processing order.
	var keys []uint64
	for fp, ids := range buckets {
		if len(ids) > 1 {
			keys = append(keys, fp)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Partition each bucket into structural equivalence classes and
	// collect them, then merge classes bottom-up (ascending
	// representative id — the binder assigns children lower ids than
	// parents, so descendants merge before ancestors).
	var classes [][]memo.GroupID
	eq := newEquality(m, fps)
	for _, fp := range keys {
		ids := buckets[fp]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		used := make([]bool, len(ids))
		for i := range ids {
			if used[i] {
				continue
			}
			class := []memo.GroupID{ids[i]}
			for j := i + 1; j < len(ids); j++ {
				if !used[j] && eq.equal(ids[i], ids[j]) {
					class = append(class, ids[j])
					used[j] = true
				}
			}
			if len(class) > 1 {
				classes = append(classes, class)
			}
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })

	for _, class := range classes {
		rep := class[0]
		if m.Group(rep).Dead {
			continue
		}
		// Redirect consumers of every duplicate to the
		// representative's Spool if it has one, else to the
		// representative directly.
		target := rep
		if sp, ok := spoolOf[rep]; ok {
			target = sp
		}
		merged := false
		for _, dup := range class[1:] {
			if m.Group(dup).Dead || dup == target {
				continue
			}
			m.Redirect(dup, target, memo.NoGroup)
			m.Kill(dup)
			// If the explicit pass gave the duplicate its own Spool,
			// fold that spool's consumers into the target too so no
			// Spool-over-Spool chain survives.
			if spDup, ok := spoolOf[dup]; ok {
				m.Redirect(spDup, target, memo.NoGroup)
				m.Kill(spDup)
				delete(spoolOf, dup)
			}
			merged = true
		}
		if !merged {
			continue
		}
		// The representative now carries every consumer; give it a
		// shared Spool unless the explicit pass already did.
		if target == rep && len(m.Parents(rep)) > 1 {
			wrapSpool(m, rep, spoolOf)
		}
	}
}

// mergeable reports whether a group participates in fingerprint-based
// duplicate merging. Terminal side-effecting operators never merge;
// Spools merge only through their inputs.
func mergeable(g *memo.Group) bool {
	switch g.Exprs[0].Op.Kind() {
	case relop.KindOutput, relop.KindSequence, relop.KindSpool:
		return false
	}
	return true
}

// garbageCollect kills groups unreachable from the root; duplicate
// merging can orphan whole subtrees, and orphans must not count as
// consumers during propagation (Alg. 3).
func garbageCollect(m *memo.Memo) {
	reachable := map[memo.GroupID]bool{}
	var mark func(g memo.GroupID)
	mark = func(g memo.GroupID) {
		if reachable[g] {
			return
		}
		reachable[g] = true
		for _, e := range m.Group(g).Exprs {
			for _, c := range e.Children {
				mark(c)
			}
		}
	}
	mark(m.Root)
	for _, g := range m.Groups() {
		if !reachable[g.ID] {
			m.Kill(g.ID)
		}
	}
	// Elide spools left with fewer than two consumers (their
	// duplicates merged away): materializing for a single consumer
	// is pure overhead, so the consumer is rewired to the spool's
	// input and the spool dies.
	for _, g := range m.Groups() {
		if g.Exprs[0].Op.Kind() != relop.KindSpool {
			continue
		}
		if len(m.Parents(g.ID)) < 2 {
			m.Redirect(g.ID, g.Exprs[0].Children[0], memo.NoGroup)
			m.Kill(g.ID)
		}
	}
}
