// Package memo implements the Cascades memo structure [Graefe 1995]
// used by the SCOPE-style optimizer: groups of logically equivalent
// expressions, per-context winners (best plan per required-property
// set), and the extra per-group state the paper's common-subexpression
// framework maintains — shared marks (Alg. 1), the history of
// requested physical properties (Sec. V), the propagated shared-group
// lists and LCA links (Alg. 3).
package memo

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

// GroupID identifies a memo group. It aliases props.GroupID so pins
// (properties enforced at shared groups) can name groups without an
// import cycle.
type GroupID = props.GroupID

// NoGroup is the invalid group id.
const NoGroup GroupID = -1

// LogicalProps are the logical properties shared by every expression
// of a group: output schema and estimated statistics.
type LogicalProps struct {
	Schema relop.Schema
	Rel    stats.Relation
}

// Expr is one group expression: an operator whose children are memo
// groups.
type Expr struct {
	Op       relop.Operator
	Children []GroupID
}

// key canonically identifies the expression within its group for
// deduplication.
func (e *Expr) key() string {
	var b strings.Builder
	b.WriteString(e.Op.Sig())
	for _, c := range e.Children {
		fmt.Fprintf(&b, "#%d", c)
	}
	return b.String()
}

// HistEntry is one element of a shared group's history of requested
// physical properties (paper Sec. V), with the phase-1 win counter
// used by the Sec. VIII-C ranking extension.
type HistEntry struct {
	Req props.Required
	// Wins counts how often this property set was delivered by a
	// winning phase-1 plan of the group; higher means more promising
	// in phase 2.
	Wins int
}

// SharedInfo is Algorithm 3's ShrdGrp node: it records, for the group
// that owns it, one shared group reachable below plus which of its
// consumers have been found below the owner.
type SharedInfo struct {
	// Shared is the shared group this entry tracks.
	Shared GroupID
	// All is the full consumer set (the shared group's parents).
	All []GroupID
	// Found flags the consumers located below the owning group.
	Found map[GroupID]bool
}

// NewSharedInfo builds an entry for shared group s with consumer set
// all and nothing found yet.
func NewSharedInfo(s GroupID, all []GroupID) *SharedInfo {
	return &SharedInfo{Shared: s, All: all, Found: map[GroupID]bool{}}
}

// Clone deep-copies the entry.
func (s *SharedInfo) Clone() *SharedInfo {
	f := make(map[GroupID]bool, len(s.Found))
	for k, v := range s.Found {
		f[k] = v
	}
	return &SharedInfo{Shared: s.Shared, All: s.All, Found: f}
}

// AllFound reports whether every consumer has been located (the
// owning group is then a potential LCA).
func (s *SharedInfo) AllFound() bool {
	for _, c := range s.All {
		if !s.Found[c] {
			return false
		}
	}
	return len(s.All) > 0
}

// Winner is the best plan found for one optimization context of a
// group. Plan is nil when the context is infeasible. Cost is Plan's
// tree cost, carried here so the search prices a parent as its
// operator cost plus its children's Cost instead of re-walking them.
type Winner struct {
	Plan *plan.Node
	Cost float64
}

// Context identifies one optimization context of a group: the
// extended requirement, plus whether it is a phase-2 context over a
// sub-DAG containing shared groups — those explore a different space
// (rounds fire at the LCAs below), so they are kept apart from phase 1
// even when no pin is set yet. Build with NewContext.
type Context struct {
	Req    props.ExtRequired
	Phase2 bool
	hash   uint64
}

// NewContext returns the context for req, hashing it once.
func NewContext(req props.ExtRequired, phase2 bool) Context {
	h := req.Hash()
	if phase2 {
		h = ^h
	}
	return Context{Req: req, Phase2: phase2, hash: h}
}

// Key renders the context as the string plan nodes carry in CtxKey
// (spool identity, lint and traces read it). The search itself never
// compares these strings; it renders one per materialized winner.
func (c Context) Key() string {
	if c.Phase2 {
		return c.Req.Key() + "|p2"
	}
	return c.Req.Key()
}

// Winners maps optimization contexts to winners. Entries are found by
// the context's structural hash and confirmed by equality, so a hash
// collision costs a chain step, never a wrong winner. The zero value
// is an empty table.
type Winners struct {
	slots map[uint64]*winnerSlot
}

type winnerSlot struct {
	ctx  Context
	w    *Winner
	next *winnerSlot
}

func (t *Winners) find(ctx Context) *winnerSlot {
	for s := t.slots[ctx.hash]; s != nil; s = s.next {
		if s.ctx.Phase2 == ctx.Phase2 && s.ctx.Req.Equal(ctx.Req) {
			return s
		}
	}
	return nil
}

// Get returns the winner cached for ctx, if any.
func (t *Winners) Get(ctx Context) (*Winner, bool) {
	if s := t.find(ctx); s != nil {
		return s.w, true
	}
	return nil, false
}

// Set caches w for ctx, replacing any earlier winner.
func (t *Winners) Set(ctx Context, w *Winner) {
	if !t.SetIfAbsent(ctx, w) {
		t.find(ctx).w = w
	}
}

// SetIfAbsent caches w for ctx only when ctx has no winner yet,
// reporting whether it stored.
func (t *Winners) SetIfAbsent(ctx Context, w *Winner) bool {
	if t.find(ctx) != nil {
		return false
	}
	if t.slots == nil {
		t.slots = map[uint64]*winnerSlot{}
	}
	t.slots[ctx.hash] = &winnerSlot{ctx: ctx, w: w, next: t.slots[ctx.hash]}
	return true
}

// Each calls fn for every cached winner, in no particular order.
func (t *Winners) Each(fn func(Context, *Winner)) {
	for _, s := range t.slots {
		for ; s != nil; s = s.next {
			fn(s.ctx, s.w)
		}
	}
}

// Group is one memo group.
type Group struct {
	ID    GroupID
	Exprs []*Expr
	Props LogicalProps

	// Shared marks the group as the root of a shared subexpression
	// (set on Spool groups by Alg. 1).
	Shared bool
	// History is the phase-1 history of requested property sets
	// (only populated on shared groups).
	History []*HistEntry
	// SharedBelow lists the shared groups reachable below this group
	// with consumer bookkeeping (populated by Alg. 3).
	SharedBelow []*SharedInfo
	// LCA is, for a shared group, the least common ancestor of its
	// consumers (NoGroup until Alg. 3 runs).
	LCA GroupID
	// LCAOf lists the shared groups whose LCA is this group.
	LCAOf []GroupID
	// Visited is Algorithm 3's traversal flag.
	Visited bool
	// Dead marks groups orphaned by Redirect (duplicate
	// subexpressions merged away by Alg. 1).
	Dead bool

	winners  Winners
	exprKeys map[string]bool
}

// Memo is the optimizer's expression store.
type Memo struct {
	groups  []*Group
	Root    GroupID
	parents map[GroupID][]GroupID // lazily computed, invalidated on mutation
	// identified records that Alg. 1 has run over the memo.
	identified bool
}

// New returns an empty memo.
func New() *Memo {
	return &Memo{Root: NoGroup}
}

// NewGroup creates an empty group with the given logical properties.
func (m *Memo) NewGroup(lp LogicalProps) *Group {
	g := &Group{
		ID:       GroupID(len(m.groups)),
		Props:    lp,
		LCA:      NoGroup,
		exprKeys: map[string]bool{},
	}
	m.groups = append(m.groups, g)
	m.parents = nil
	return g
}

// Insert creates a new group seeded with op over children.
func (m *Memo) Insert(op relop.Operator, children []GroupID, lp LogicalProps) GroupID {
	g := m.NewGroup(lp)
	m.AddExpr(g.ID, op, children)
	return g.ID
}

// AddExpr adds an expression to an existing group, deduplicating by
// operator signature and children. It reports whether the expression
// was new.
func (m *Memo) AddExpr(gid GroupID, op relop.Operator, children []GroupID) bool {
	g := m.Group(gid)
	e := &Expr{Op: op, Children: append([]GroupID{}, children...)}
	k := e.key()
	if g.exprKeys[k] {
		return false
	}
	g.exprKeys[k] = true
	g.Exprs = append(g.Exprs, e)
	m.parents = nil
	return true
}

// Group returns the group with the given id; it panics on invalid
// ids, which are always programming errors.
func (m *Memo) Group(id GroupID) *Group {
	return m.groups[int(id)]
}

// MarkIdentified records that Alg. 1 (core.IdentifyCommonSubexpressions)
// has run over the memo, so it never runs twice.
func (m *Memo) MarkIdentified() { m.identified = true }

// Identified reports whether Alg. 1 has run over the memo.
func (m *Memo) Identified() bool { return m.identified }

// NumGroups returns the number of groups ever created (including dead
// ones).
func (m *Memo) NumGroups() int { return len(m.groups) }

// Groups iterates over the live groups in id order.
func (m *Memo) Groups() []*Group {
	out := make([]*Group, 0, len(m.groups))
	for _, g := range m.groups {
		if !g.Dead {
			out = append(out, g)
		}
	}
	return out
}

// SharedGroups returns the live groups marked shared, in id order.
func (m *Memo) SharedGroups() []*Group {
	var out []*Group
	for _, g := range m.Groups() {
		if g.Shared {
			out = append(out, g)
		}
	}
	return out
}

// Parents returns the distinct live groups containing an expression
// that references g, in id order. The parent index is computed lazily
// and invalidated by any mutation.
func (m *Memo) Parents(g GroupID) []GroupID {
	if m.parents == nil {
		m.parents = map[GroupID][]GroupID{}
		for _, gr := range m.groups {
			if gr.Dead {
				continue
			}
			seen := map[GroupID]bool{}
			for _, e := range gr.Exprs {
				for _, c := range e.Children {
					if !seen[c] {
						seen[c] = true
						m.parents[c] = append(m.parents[c], gr.ID)
					}
				}
			}
		}
	}
	return m.parents[g]
}

// Redirect rewrites every child reference to `from` so it points to
// `to`, marks `from` dead, and re-deduplicates affected groups. It is
// how Algorithm 1 merges duplicate subexpressions and how Spool
// insertion retargets consumers.
func (m *Memo) Redirect(from, to GroupID, except GroupID) {
	for _, g := range m.groups {
		if g.Dead || g.ID == except {
			continue
		}
		changed := false
		for _, e := range g.Exprs {
			for i, c := range e.Children {
				if c == from {
					e.Children[i] = to
					changed = true
				}
			}
		}
		if changed {
			// Re-deduplicate: two expressions may have become equal.
			keys := map[string]bool{}
			var kept []*Expr
			for _, e := range g.Exprs {
				k := e.key()
				if !keys[k] {
					keys[k] = true
					kept = append(kept, e)
				}
			}
			g.Exprs = kept
			g.exprKeys = keys
		}
	}
	m.parents = nil
}

// Kill marks a group dead (after Redirect moved its consumers away).
func (m *Memo) Kill(g GroupID) {
	m.Group(g).Dead = true
	m.parents = nil
}

// Winner returns the cached winner for the context, if any.
func (g *Group) Winner(ctx Context) (*Winner, bool) { return g.winners.Get(ctx) }

// SetWinner caches the winner for the context.
func (g *Group) SetWinner(ctx Context, w *Winner) { g.winners.Set(ctx, w) }

// SetWinnerIfAbsent caches w for the context only when it has no
// winner yet, reporting whether it stored. The parallel phase-2 merge
// uses it so that when several round workers independently computed
// the same context, the one earliest in deterministic combo order
// supplies the canonical plan pointer.
func (g *Group) SetWinnerIfAbsent(ctx Context, w *Winner) bool {
	return g.winners.SetIfAbsent(ctx, w)
}

// ClearWinners drops all cached winners (used by tests and by
// re-optimization experiments that change the cost model).
func (g *Group) ClearWinners() { g.winners = Winners{} }

// AddHistory appends req to the group's history unless an equal entry
// exists (Alg. 2 lines 1–3). It reports whether the entry was new.
func (g *Group) AddHistory(req props.Required) bool {
	for _, h := range g.History {
		if h.Req.Equal(req) {
			return false
		}
	}
	g.History = append(g.History, &HistEntry{Req: req})
	return true
}

// BumpHistoryWins increments the win counter of every history entry
// the delivered properties satisfy (Sec. VIII-C ranking signal).
// Vacuous entries are skipped: every winner satisfies "anything", so
// counting it would drown the informative schemes.
func (g *Group) BumpHistoryWins(d props.Delivered) {
	for _, h := range g.History {
		if h.Req.IsAny() {
			continue
		}
		if d.Satisfies(h.Req) {
			h.Wins++
		}
	}
}

// FindSharedBelow returns this group's SharedInfo for shared group s,
// if present.
func (g *Group) FindSharedBelow(s GroupID) *SharedInfo {
	for _, si := range g.SharedBelow {
		if si.Shared == s {
			return si
		}
	}
	return nil
}

// ResetTraversal clears the Alg. 3 state on all groups so propagation
// can be rerun.
func (m *Memo) ResetTraversal() {
	for _, g := range m.groups {
		g.Visited = false
		g.SharedBelow = nil
		g.LCA = NoGroup
		g.LCAOf = nil
	}
}

// String dumps the memo for debugging: one line per group with its
// expressions.
func (m *Memo) String() string {
	var b strings.Builder
	for _, g := range m.groups {
		if g.Dead {
			continue
		}
		marks := ""
		if g.Shared {
			marks += " [shared]"
		}
		if g.ID == m.Root {
			marks += " [root]"
		}
		fmt.Fprintf(&b, "G%d%s:", g.ID, marks)
		for _, e := range g.Exprs {
			fmt.Fprintf(&b, "  %s", e.Op.Sig())
			if len(e.Children) > 0 {
				b.WriteString("(")
				for i, c := range e.Children {
					if i > 0 {
						b.WriteString(",")
					}
					fmt.Fprintf(&b, "G%d", c)
				}
				b.WriteString(")")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
