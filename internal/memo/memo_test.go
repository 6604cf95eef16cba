package memo

import (
	"strings"
	"testing"

	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

func lp(rows int64) LogicalProps {
	return LogicalProps{
		Schema: relop.Schema{{Name: "A", Type: relop.TInt}},
		Rel:    stats.Relation{Rows: rows, RowBytes: 8},
	}
}

func gb(keys ...string) *relop.GroupBy {
	return &relop.GroupBy{Keys: keys, Aggs: []relop.Aggregate{{Func: relop.AggSum, Arg: "D", As: "S"}}}
}

func TestInsertAndDedup(t *testing.T) {
	m := New()
	ex := m.Insert(&relop.Extract{Path: "t", FileID: 1}, nil, lp(100))
	g := m.Insert(gb("A"), []GroupID{ex}, lp(10))
	if m.NumGroups() != 2 {
		t.Fatalf("groups = %d", m.NumGroups())
	}
	if !m.AddExpr(g, gb("B"), []GroupID{ex}) {
		t.Error("different expr should insert")
	}
	if m.AddExpr(g, gb("A"), []GroupID{ex}) {
		t.Error("duplicate expr should be rejected")
	}
	if got := len(m.Group(g).Exprs); got != 2 {
		t.Errorf("group exprs = %d", got)
	}
}

func TestParents(t *testing.T) {
	m := New()
	ex := m.Insert(&relop.Extract{Path: "t"}, nil, lp(100))
	g1 := m.Insert(gb("A"), []GroupID{ex}, lp(10))
	g2 := m.Insert(gb("B"), []GroupID{ex}, lp(10))
	ps := m.Parents(ex)
	if len(ps) != 2 || ps[0] != g1 || ps[1] != g2 {
		t.Errorf("parents = %v", ps)
	}
	if got := m.Parents(g1); len(got) != 0 {
		t.Errorf("root-ish group should have no parents: %v", got)
	}
	// Parent index must refresh after mutation.
	g3 := m.Insert(gb("C"), []GroupID{ex}, lp(10))
	if got := m.Parents(ex); len(got) != 3 {
		t.Errorf("parents after insert = %v", got)
	}
	_ = g3
	// Duplicate references from one parent count once.
	m2 := New()
	a := m2.Insert(&relop.Extract{Path: "x"}, nil, lp(1))
	j := m2.Insert(&relop.Join{LeftKeys: []string{"A"}, RightKeys: []string{"A"}}, []GroupID{a, a}, lp(1))
	if got := m2.Parents(a); len(got) != 1 || got[0] != j {
		t.Errorf("self-join parents = %v", got)
	}
}

func TestRedirect(t *testing.T) {
	// Two structurally equal extract groups; redirect consumers of
	// the duplicate onto the original (what Alg. 1 does).
	m := New()
	ex1 := m.Insert(&relop.Extract{Path: "t"}, nil, lp(100))
	ex2 := m.Insert(&relop.Extract{Path: "t"}, nil, lp(100))
	g1 := m.Insert(gb("A"), []GroupID{ex1}, lp(10))
	g2 := m.Insert(gb("A"), []GroupID{ex2}, lp(10))
	m.Redirect(ex2, ex1, NoGroup)
	m.Kill(ex2)
	if got := m.Parents(ex1); len(got) != 2 {
		t.Errorf("parents after redirect = %v", got)
	}
	if !m.Group(ex2).Dead {
		t.Error("redirected group should be dead")
	}
	if len(m.Groups()) != 3 {
		t.Errorf("live groups = %d, want 3", len(m.Groups()))
	}
	_ = g1
	_ = g2
}

func TestRedirectDedupsParentExprs(t *testing.T) {
	// A join of ex1 and ex2 becomes a self-join after redirect; if a
	// self-join expression already existed it must not duplicate.
	m := New()
	ex1 := m.Insert(&relop.Extract{Path: "t"}, nil, lp(100))
	ex2 := m.Insert(&relop.Extract{Path: "t"}, nil, lp(100))
	j := m.Insert(&relop.Join{LeftKeys: []string{"A"}, RightKeys: []string{"A"}}, []GroupID{ex1, ex2}, lp(1))
	m.AddExpr(j, &relop.Join{LeftKeys: []string{"A"}, RightKeys: []string{"A"}}, []GroupID{ex1, ex1})
	if len(m.Group(j).Exprs) != 2 {
		t.Fatalf("precondition: 2 exprs")
	}
	m.Redirect(ex2, ex1, NoGroup)
	if len(m.Group(j).Exprs) != 1 {
		t.Errorf("exprs after redirect = %d, want 1 (deduped)", len(m.Group(j).Exprs))
	}
}

func TestRedirectExcept(t *testing.T) {
	// Spool insertion: all consumers move to the spool group except
	// the spool itself, which keeps pointing at the original.
	m := New()
	ex := m.Insert(&relop.Extract{Path: "t"}, nil, lp(100))
	g1 := m.Insert(gb("A"), []GroupID{ex}, lp(10))
	g2 := m.Insert(gb("B"), []GroupID{ex}, lp(10))
	spool := m.Insert(&relop.Spool{}, []GroupID{ex}, m.Group(ex).Props)
	m.Redirect(ex, spool, spool)
	if got := m.Parents(ex); len(got) != 1 || got[0] != spool {
		t.Errorf("original's parents = %v, want only spool", got)
	}
	if got := m.Parents(spool); len(got) != 2 {
		t.Errorf("spool parents = %v", got)
	}
	_ = g1
	_ = g2
}

// anyCtx is the phase-1 context of the vacuous requirement.
var anyCtx = NewContext(props.ExtAny(), false)

func TestWinners(t *testing.T) {
	m := New()
	g := m.Group(m.Insert(&relop.Extract{Path: "t"}, nil, lp(1)))
	if _, ok := g.Winner(anyCtx); ok {
		t.Error("no winner yet")
	}
	g.SetWinner(anyCtx, &Winner{Cost: 5})
	w, ok := g.Winner(anyCtx)
	if !ok || w.Cost != 5 {
		t.Errorf("winner = %+v, %v", w, ok)
	}
	g.ClearWinners()
	if _, ok := g.Winner(anyCtx); ok {
		t.Error("winners should be cleared")
	}
}

func TestHistory(t *testing.T) {
	m := New()
	g := m.Group(m.Insert(&relop.Extract{Path: "t"}, nil, lp(1)))
	r1 := props.RequireHash(props.NewColSet("A", "B"))
	r2 := props.RequireHash(props.NewColSet("B"))
	if !g.AddHistory(r1) || !g.AddHistory(r2) {
		t.Error("new entries should insert")
	}
	if g.AddHistory(r1) {
		t.Error("duplicate entry should be rejected")
	}
	if len(g.History) != 2 {
		t.Fatalf("history = %d", len(g.History))
	}
	// Delivered hash{B} satisfies both entries.
	g.BumpHistoryWins(props.Delivered{Part: props.HashPartitioning(props.NewColSet("B"))})
	if g.History[0].Wins != 1 || g.History[1].Wins != 1 {
		t.Errorf("wins = %d, %d", g.History[0].Wins, g.History[1].Wins)
	}
	// Delivered hash{A} satisfies only the first.
	g.BumpHistoryWins(props.Delivered{Part: props.HashPartitioning(props.NewColSet("A"))})
	if g.History[0].Wins != 2 || g.History[1].Wins != 1 {
		t.Errorf("wins = %d, %d", g.History[0].Wins, g.History[1].Wins)
	}
}

func TestSharedInfo(t *testing.T) {
	si := NewSharedInfo(3, []GroupID{4, 5})
	if si.AllFound() {
		t.Error("nothing found yet")
	}
	si.Found[4] = true
	if si.AllFound() {
		t.Error("partial")
	}
	si.Found[5] = true
	if !si.AllFound() {
		t.Error("all found")
	}
	c := si.Clone()
	c.Found[4] = false
	if !si.Found[4] {
		t.Error("Clone shares Found map")
	}
	empty := NewSharedInfo(3, nil)
	if empty.AllFound() {
		t.Error("empty consumer set must not count as found")
	}
}

func TestFindSharedBelowAndReset(t *testing.T) {
	m := New()
	g := m.Group(m.Insert(&relop.Extract{Path: "t"}, nil, lp(1)))
	g.SharedBelow = append(g.SharedBelow, NewSharedInfo(7, []GroupID{8}))
	if got := g.FindSharedBelow(7); got == nil || got.Shared != 7 {
		t.Errorf("FindSharedBelow = %v", got)
	}
	if g.FindSharedBelow(9) != nil {
		t.Error("missing shared should be nil")
	}
	g.Visited = true
	g.LCA = 3
	g.LCAOf = []GroupID{7}
	m.ResetTraversal()
	if g.Visited || g.LCA != NoGroup || g.LCAOf != nil || g.SharedBelow != nil {
		t.Error("ResetTraversal incomplete")
	}
}

func TestSharedGroupsAndString(t *testing.T) {
	m := New()
	ex := m.Insert(&relop.Extract{Path: "t"}, nil, lp(1))
	sp := m.Insert(&relop.Spool{}, []GroupID{ex}, lp(1))
	m.Group(sp).Shared = true
	m.Root = sp
	sg := m.SharedGroups()
	if len(sg) != 1 || sg[0].ID != sp {
		t.Errorf("shared groups = %v", sg)
	}
	s := m.String()
	if !strings.Contains(s, "[shared]") || !strings.Contains(s, "[root]") {
		t.Errorf("String missing marks:\n%s", s)
	}
	if !strings.Contains(s, "Spool(G0)") {
		t.Errorf("String missing child refs:\n%s", s)
	}
}

// TestMemoScales exercises the memo's core operations on a
// 10k-group chain: construction, parent indexing, and redirects must
// all stay effectively linear.
func TestMemoScales(t *testing.T) {
	m := New()
	prev := m.Insert(&relop.Extract{Path: "t", FileID: 1}, nil, lp(1000))
	for i := 0; i < 10_000; i++ {
		prev = m.Insert(gb("A"), []GroupID{prev}, lp(100))
	}
	m.Root = prev
	if m.NumGroups() != 10_001 {
		t.Fatalf("groups = %d", m.NumGroups())
	}
	// Parent index over the whole chain.
	count := 0
	for _, g := range m.Groups() {
		count += len(m.Parents(g.ID))
	}
	if count != 10_000 {
		t.Errorf("parent edges = %d", count)
	}
	// A redirect in the middle stays cheap and consistent.
	mid := GroupID(5000)
	sp := m.Insert(&relop.Spool{}, []GroupID{mid}, lp(100))
	m.Redirect(mid, sp, sp)
	if got := m.Parents(mid); len(got) != 1 || got[0] != sp {
		t.Errorf("parents after redirect = %v", got)
	}
}

func TestSetWinnerIfAbsent(t *testing.T) {
	m := New()
	g := m.Group(m.Insert(&relop.Extract{Path: "t"}, nil, lp(1)))
	first := &Winner{Cost: 5}
	if !g.SetWinnerIfAbsent(anyCtx, first) {
		t.Error("first store must report true")
	}
	if g.SetWinnerIfAbsent(anyCtx, &Winner{Cost: 3}) {
		t.Error("second store must report false")
	}
	if w, ok := g.Winner(anyCtx); !ok || w != first {
		t.Errorf("winner = %+v, want the first stored pointer", w)
	}
	if !g.SetWinnerIfAbsent(NewContext(props.Ext(props.RequireHash(props.NewColSet("B"))), false), &Winner{Cost: 7}) {
		t.Error("distinct key must store")
	}
	// The phase-2 flag and the pins are part of the context.
	if !g.SetWinnerIfAbsent(NewContext(props.ExtAny(), true), &Winner{Cost: 8}) {
		t.Error("the phase-2 context must be kept apart from phase 1")
	}
	pinned := props.ExtAny().WithPins(props.Pins{}.With(3, props.RequireSerial()))
	if !g.SetWinnerIfAbsent(NewContext(pinned, true), &Winner{Cost: 9}) {
		t.Error("a pinned context must be kept apart from the unpinned one")
	}
	if w, _ := g.Winner(NewContext(pinned, true)); w == nil || w.Cost != 9 {
		t.Errorf("pinned winner = %+v, want cost 9", w)
	}
}
