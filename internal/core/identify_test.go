package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/relop"
)

// The evaluation scripts, from the shared corpus.
const (
	scriptS1 = datagen.ScriptS1
	scriptS3 = datagen.ScriptS3
	scriptS4 = datagen.ScriptS4
)

func buildMemo(t *testing.T, src string) *memo.Memo {
	t.Helper()
	m, err := logical.BuildSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func opKind(m *memo.Memo, g memo.GroupID) relop.OpKind {
	return m.Group(g).Exprs[0].Op.Kind()
}

func TestIdentifyExplicitS1(t *testing.T) {
	m := buildMemo(t, scriptS1)
	shared := IdentifyCommonSubexpressions(m)
	if len(shared) != 1 {
		t.Fatalf("shared groups = %v, want exactly 1 (spool over GB(R))\n%s", shared, m)
	}
	sp := m.Group(shared[0])
	if sp.Exprs[0].Op.Kind() != relop.KindSpool {
		t.Fatalf("shared group op = %v, want Spool", sp.Exprs[0].Op)
	}
	if !sp.Shared {
		t.Error("spool group must be marked shared")
	}
	// The spool's single child is the GB(A,B,C) group, and the spool
	// has the two consumer GBs as parents.
	child := m.Group(sp.Exprs[0].Children[0])
	gb, ok := child.Exprs[0].Op.(*relop.GroupBy)
	if !ok || len(gb.Keys) != 3 {
		t.Fatalf("spool child = %v", child.Exprs[0].Op)
	}
	if got := m.Parents(shared[0]); len(got) != 2 {
		t.Errorf("spool parents = %v", got)
	}
	if got := m.Parents(child.ID); len(got) != 1 {
		t.Errorf("GB(R) parents = %v, want only the spool", got)
	}
}

func TestIdentifyTextualDuplicates(t *testing.T) {
	// The same aggregation written twice over the same file: no
	// explicit sharing, but fingerprints must find and merge it.
	m := buildMemo(t, `
X0 = EXTRACT A,B,D FROM "test.log" USING LogExtractor;
X = SELECT A,B,Sum(D) as S FROM X0 GROUP BY A,B;
Y0 = EXTRACT A,B,D FROM "test.log" USING LogExtractor;
Y = SELECT A,B,Sum(D) as S FROM Y0 GROUP BY A,B;
X1 = SELECT A,Sum(S) as SA FROM X GROUP BY A;
Y1 = SELECT B,Sum(S) as SB FROM Y GROUP BY B;
OUTPUT X1 TO "o1";
OUTPUT Y1 TO "o2";
`)
	before := len(m.Groups())
	shared := IdentifyCommonSubexpressions(m)
	if len(shared) != 1 {
		t.Fatalf("shared = %v, want 1 merged spool\n%s", shared, m)
	}
	if got := m.Parents(shared[0]); len(got) != 2 {
		t.Errorf("merged spool parents = %v", got)
	}
	// The duplicate pipeline (extract + GB) must be gone.
	after := len(m.Groups())
	if after >= before {
		t.Errorf("groups %d -> %d: duplicates not removed", before, after)
	}
	extracts := 0
	for _, g := range m.Groups() {
		if g.Exprs[0].Op.Kind() == relop.KindExtract {
			extracts++
		}
	}
	if extracts != 1 {
		t.Errorf("extract groups = %d, want 1 after merging", extracts)
	}
}

func TestIdentifyDifferentFilesNotMerged(t *testing.T) {
	m := buildMemo(t, `
X0 = EXTRACT A,D FROM "f1" USING E;
X = SELECT A,Sum(D) as S FROM X0 GROUP BY A;
Y0 = EXTRACT A,D FROM "f2" USING E;
Y = SELECT A,Sum(D) as S FROM Y0 GROUP BY A;
OUTPUT X TO "o1";
OUTPUT Y TO "o2";
`)
	shared := IdentifyCommonSubexpressions(m)
	if len(shared) != 0 {
		t.Errorf("different inputs must not merge: shared = %v", shared)
	}
}

func TestIdentifyNoSharingNoSpools(t *testing.T) {
	m := buildMemo(t, `
R0 = EXTRACT A,D FROM "f" USING E;
R = SELECT A,Sum(D) as S FROM R0 GROUP BY A;
OUTPUT R TO "o";
`)
	if shared := IdentifyCommonSubexpressions(m); len(shared) != 0 {
		t.Errorf("linear script should have no shared groups: %v", shared)
	}
	for _, g := range m.Groups() {
		if g.Exprs[0].Op.Kind() == relop.KindSpool {
			t.Error("no spool should be inserted")
		}
	}
}

func TestIdentifyThreeConsumers(t *testing.T) {
	// The paper's S2: three consumers of one shared group.
	m := buildMemo(t, `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,A,Sum(S) as S1 FROM R GROUP BY B,A;
R2 = SELECT A,C,Sum(S) as S2 FROM R GROUP BY A,C;
R3 = SELECT A,Sum(S) as S3 FROM R GROUP BY A;
OUTPUT R1 TO "o1";
OUTPUT R2 TO "o2";
OUTPUT R3 TO "o3";
`)
	shared := IdentifyCommonSubexpressions(m)
	if len(shared) != 1 {
		t.Fatalf("shared = %v", shared)
	}
	if got := m.Parents(shared[0]); len(got) != 3 {
		t.Errorf("spool parents = %v, want 3", got)
	}
}

func TestIdentifyNestedDuplicates(t *testing.T) {
	// Duplicated two-level pipelines: the merge must unify both
	// levels bottom-up and leave a single spool at the top shared
	// point, with no Spool-over-Spool chains.
	m := buildMemo(t, `
X0 = EXTRACT A,B,D FROM "f" USING E;
X = SELECT A,B,Sum(D) as S FROM X0 GROUP BY A,B;
XX = SELECT A,Sum(S) as T FROM X GROUP BY A;
Y0 = EXTRACT A,B,D FROM "f" USING E;
Y = SELECT A,B,Sum(D) as S FROM Y0 GROUP BY A,B;
YY = SELECT A,Sum(S) as T FROM Y GROUP BY A;
P = SELECT A, T as T1 FROM XX;
Q = SELECT A as A2, T as T2 FROM YY;
OUTPUT P TO "o1";
OUTPUT Q TO "o2";
`)
	shared := IdentifyCommonSubexpressions(m)
	if len(shared) != 1 {
		t.Fatalf("shared = %v, want 1 (merged XX/YY pipeline)\n%s", shared, m)
	}
	for _, g := range m.Groups() {
		if g.Exprs[0].Op.Kind() == relop.KindSpool {
			child := m.Group(g.Exprs[0].Children[0])
			if child.Exprs[0].Op.Kind() == relop.KindSpool {
				t.Error("Spool-over-Spool chain left behind")
			}
		}
	}
	// Exactly one extract and one GB(A,B) should survive.
	counts := map[relop.OpKind]int{}
	for _, g := range m.Groups() {
		counts[g.Exprs[0].Op.Kind()]++
	}
	if counts[relop.KindExtract] != 1 {
		t.Errorf("extracts = %d, want 1", counts[relop.KindExtract])
	}
	if counts[relop.KindGroupBy] != 2 {
		t.Errorf("group-bys = %d, want 2 (inner + outer)", counts[relop.KindGroupBy])
	}
}

func TestIdentifyRootNotSpooled(t *testing.T) {
	m := buildMemo(t, scriptS1)
	IdentifyCommonSubexpressions(m)
	if opKind(m, m.Root) == relop.KindSpool {
		t.Error("root must not be wrapped in a spool")
	}
	if opKind(m, m.Root) != relop.KindSequence {
		t.Errorf("root = %v", opKind(m, m.Root))
	}
}

// TestIdentifyRunsOncePerMemo: Algorithm 1 runs once per memo, so the
// optimizer's Step 1 on a memo the compile stage already identified
// changes nothing. A second pass would elide a forced single-consumer
// spool as garbage.
func TestIdentifyRunsOncePerMemo(t *testing.T) {
	m := buildMemo(t, scriptS1)
	if m.Identified() {
		t.Fatal("a fresh bind reports itself identified")
	}
	first := IdentifyCommonSubexpressions(m)
	var single memo.GroupID = memo.NoGroup
	for _, g := range m.Groups() {
		if g.Exprs[0].Op.Kind() == relop.KindGroupBy && len(m.Parents(g.ID)) == 1 &&
			opKind(m, m.Parents(g.ID)[0]) == relop.KindOutput {
			single = g.ID
			break
		}
	}
	if single == memo.NoGroup {
		t.Fatalf("no single-consumer aggregation in\n%s", m)
	}
	sp := ForceSpool(m, single)
	groups := m.NumGroups()
	again := IdentifyCommonSubexpressions(m)
	if m.Group(sp).Dead || m.NumGroups() != groups || len(again) != len(first)+1 {
		t.Errorf("second identification: forced spool dead=%v, groups %d -> %d, shared %v -> %v",
			m.Group(sp).Dead, groups, m.NumGroups(), first, again)
	}
}
