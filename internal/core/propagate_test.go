package core

import (
	"math/rand"
	"testing"

	"repro/internal/memo"
	"repro/internal/relop"
)

// findSpool returns the single shared spool group, failing otherwise.
func findSpool(t *testing.T, m *memo.Memo) *memo.Group {
	t.Helper()
	sg := m.SharedGroups()
	if len(sg) != 1 {
		t.Fatalf("shared groups = %d, want 1", len(sg))
	}
	return sg[0]
}

// TestLCAFig3a reproduces Fig. 3(a): the motivating script's single
// shared group; the LCA of its two consumers is the Sequence root.
func TestLCAFig3a(t *testing.T) {
	m := buildMemo(t, scriptS1)
	IdentifyCommonSubexpressions(m)
	PropagateSharedGroups(m)
	sp := findSpool(t, m)
	if sp.LCA != m.Root {
		t.Errorf("LCA = G%d, want root G%d", sp.LCA, m.Root)
	}
	root := m.Group(m.Root)
	if len(root.LCAOf) != 1 || root.LCAOf[0] != sp.ID {
		t.Errorf("root.LCAOf = %v", root.LCAOf)
	}
	// Propagation: the root must know the shared group and both
	// consumers; each consumer-side output must know one consumer.
	si := root.FindSharedBelow(sp.ID)
	if si == nil || !si.AllFound() {
		t.Fatalf("root's SharedBelow = %+v", si)
	}
	if len(si.All) != 2 {
		t.Errorf("consumers = %v", si.All)
	}
}

func TestLCAFig4aDifferentLCAs(t *testing.T) {
	m := buildMemo(t, scriptS3)
	IdentifyCommonSubexpressions(m)
	PropagateSharedGroups(m)
	sg := m.SharedGroups()
	if len(sg) != 2 {
		t.Fatalf("shared groups = %d, want 2\n%s", len(sg), m)
	}
	for _, sp := range sg {
		if sp.LCA == m.Root {
			t.Errorf("shared G%d LCA should be below the root (its own join side)", sp.ID)
		}
		// The LCA must be an ancestor of both consumers on the same
		// pipeline — specifically a Join (or the Project above it).
		lcaKind := m.Group(sp.LCA).Exprs[0].Op.Kind()
		if lcaKind != relop.KindJoin && lcaKind != relop.KindProject {
			t.Errorf("LCA of G%d is %v, want the join side", sp.ID, lcaKind)
		}
	}
	if sg[0].LCA == sg[1].LCA {
		t.Error("the two pipelines must have different LCAs")
	}
}

// scriptCrossJoins wires the consumers across the two pipelines like
// Fig. 4(b): F1 joins R1 with T1, F2 joins R2 with T2, so both shared
// groups share the Sequence root as their single LCA.
const scriptCrossJoins = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,C,Sum(S) as S1 FROM R GROUP BY B,C;
R2 = SELECT B,A,Sum(S) as S2 FROM R GROUP BY B,A;
T0 = EXTRACT A,B,C,D FROM "test2.log" USING LogExtractor;
T = SELECT A,B,C,Sum(D) as S FROM T0 GROUP BY A,B,C;
T1 = SELECT B,C,Sum(S) as S3 FROM T GROUP BY B,C;
T2 = SELECT B,A,Sum(S) as S4 FROM T GROUP BY B,A;
F1 = SELECT R1.B,S1,S3 FROM R1,T1 WHERE R1.B=T1.B;
F2 = SELECT R2.B,S2,S4 FROM R2,T2 WHERE R2.B=T2.B;
OUTPUT F1 TO "o1";
OUTPUT F2 TO "o2";
`

func TestLCAFig4bSingleLCA(t *testing.T) {
	m := buildMemo(t, scriptCrossJoins)
	IdentifyCommonSubexpressions(m)
	PropagateSharedGroups(m)
	sg := m.SharedGroups()
	if len(sg) != 2 {
		t.Fatalf("shared groups = %d, want 2", len(sg))
	}
	for _, sp := range sg {
		if sp.LCA != m.Root {
			t.Errorf("shared G%d LCA = G%d, want root G%d (consumers cross the joins)",
				sp.ID, sp.LCA, m.Root)
		}
	}
	root := m.Group(m.Root)
	if len(root.LCAOf) != 2 {
		t.Errorf("root.LCAOf = %v", root.LCAOf)
	}
}

func TestLCAFig3cNotLowestCommonAncestor(t *testing.T) {
	m := buildMemo(t, scriptS4)
	IdentifyCommonSubexpressions(m)
	PropagateSharedGroups(m)
	// S4 has three shared groups once R1 and R2 (each consumed by an
	// Output and the join) are spooled alongside R.
	sg := m.SharedGroups()
	if len(sg) != 3 {
		t.Fatalf("shared groups = %d, want 3 (R, R1, R2)\n%s", len(sg), m)
	}
	// Every LCA must be the root: each shared group has a consumer
	// path that bypasses the join through a direct OUTPUT.
	for _, sp := range sg {
		if sp.LCA != m.Root {
			t.Errorf("shared G%d LCA = G%d (%v), want root",
				sp.ID, sp.LCA, m.Group(sp.LCA).Exprs[0].Op)
		}
	}
}

// TestLCAMatchesBruteForce checks Definition 2 directly on random
// DAGs: the dominator-based LCA must equal the lowest group present
// on every consumer-to-root path.
func TestLCAMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m, shared := randomSharedDAG(r)
		if shared == memo.NoGroup {
			continue
		}
		PropagateSharedGroups(m)
		got := m.Group(shared).LCA
		want := bruteForceLCA(m, shared)
		if got != want {
			t.Fatalf("trial %d: LCA = G%d, brute force = G%d\n%s", trial, got, want, m)
		}
	}
}

// randomSharedDAG builds a random memo DAG with one spool-marked
// shared group (if the random shape produced one).
func randomSharedDAG(r *rand.Rand) (*memo.Memo, memo.GroupID) {
	m := memo.New()
	n := 4 + r.Intn(10)
	var groups []memo.GroupID
	for i := 0; i < n; i++ {
		if len(groups) < 2 || r.Intn(4) == 0 {
			groups = append(groups, m.Insert(extract(1+i), nil, lp()))
			continue
		}
		// Unary or binary node over random earlier groups.
		if r.Intn(2) == 0 {
			c := groups[r.Intn(len(groups))]
			groups = append(groups, m.Insert(gbOp("A"), []memo.GroupID{c}, lp()))
		} else {
			a := groups[r.Intn(len(groups))]
			b := groups[r.Intn(len(groups))]
			if a == b {
				groups = append(groups, m.Insert(gbOp("B"), []memo.GroupID{a}, lp()))
			} else {
				groups = append(groups, m.Insert(
					&relop.Join{LeftKeys: []string{"A"}, RightKeys: []string{"A"}},
					[]memo.GroupID{a, b}, lp()))
			}
		}
	}
	// Root ties together all parentless groups.
	var tops []memo.GroupID
	for _, g := range groups {
		if len(m.Parents(g)) == 0 {
			tops = append(tops, g)
		}
	}
	m.Root = m.Insert(&relop.Sequence{}, tops, lp())
	// Pick the first multi-parent group and spool it.
	for _, g := range groups {
		if len(m.Parents(g)) > 1 && m.Group(g).Exprs[0].Op.Kind() != relop.KindSpool {
			sp := m.Insert(&relop.Spool{}, []memo.GroupID{g}, lp())
			m.Redirect(g, sp, sp)
			m.Group(sp).Shared = true
			return m, sp
		}
	}
	return m, memo.NoGroup
}

// bruteForceLCA finds the lowest group on every consumer→root path by
// explicit path reasoning: v is a candidate iff no consumer can reach
// the root when v is removed; the lowest candidate is the one all
// other candidates lie above.
func bruteForceLCA(m *memo.Memo, shared memo.GroupID) memo.GroupID {
	consumers := m.Parents(shared)
	reachesRootAvoiding := func(from, avoid memo.GroupID) bool {
		seen := map[memo.GroupID]bool{}
		var up func(g memo.GroupID) bool
		up = func(g memo.GroupID) bool {
			if g == avoid || seen[g] {
				return false
			}
			if g == m.Root {
				return true
			}
			seen[g] = true
			for _, p := range m.Parents(g) {
				if up(p) {
					return true
				}
			}
			return false
		}
		return up(from)
	}
	var candidates []memo.GroupID
	for _, g := range m.Groups() {
		onAll := true
		for _, c := range consumers {
			if c == g.ID {
				continue // a path from c trivially contains c
			}
			if reachesRootAvoiding(c, g.ID) {
				onAll = false
				break
			}
		}
		if onAll {
			candidates = append(candidates, g.ID)
		}
	}
	// The candidates form a chain; v is the lowest iff no other
	// candidate w is below it ("w below v" means v lies on every
	// path from w, i.e. w cannot reach the root avoiding v).
	for _, v := range candidates {
		lowest := true
		for _, w := range candidates {
			if w != v && !reachesRootAvoiding(w, v) {
				lowest = false
				break
			}
		}
		if lowest {
			return v
		}
	}
	return memo.NoGroup
}
