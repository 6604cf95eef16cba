package bench

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/mqo"
	"repro/internal/opt"
	"repro/internal/share"
)

// TestPerScriptBaselineMatchesSession pins MQO's per-script baseline to
// the session it simulates: the identities mqo.SelectPerScript keeps
// with no budget are exactly the ones a fresh session admits running
// the same batch in order. Both apply share.Admit to the optimizer's
// artifact list; this keeps the simulation's demand bookkeeping from
// drifting away from the session's.
func TestPerScriptBaselineMatchesSession(t *testing.T) {
	micro := mqoMicroBatch()
	batches := []struct {
		name    string
		scripts []mqo.Script
	}{
		{"micro-s1-s4", micro},
		{"micro-x2", append(slices.Clone(micro), micro...)},
		{"fuzz-6", mqoFuzzBatch(6, 42)},
		{"examples-session", exampleSession(t)},
	}
	for _, b := range batches {
		env := Small("mqo-"+b.name, "")
		dag, err := mqo.BuildDAG(b.scripts, env.Cat)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		sel, err := mqo.SelectPerScript(mqo.NewEvaluator(dag, opt.DefaultOptions()), mqo.Config{})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		var simulated []string
		for _, k := range sel.Keys {
			simulated = append(simulated, k.String())
		}

		run := Small("mqo-"+b.name, "")
		sess, err := share.NewSession(share.Config{Catalog: run.Cat, FS: run.FS, Machines: 8, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range b.scripts {
			if _, err := sess.Run(sc.Src); err != nil {
				t.Fatalf("%s %s: %v", b.name, sc.Name, err)
			}
		}
		var admitted []string
		for _, e := range sess.Cache().Describe().Entries {
			admitted = append(admitted, e.ID)
		}
		slices.Sort(simulated)
		slices.Sort(admitted)
		if !slices.Equal(simulated, admitted) {
			t.Errorf("%s: per-script baseline keeps %v, the session admitted %v", b.name, simulated, admitted)
		}
		t.Logf("%s: %d identities", b.name, len(admitted))
	}
}

// exampleSession loads examples/session's scripts in name order, the
// batch scopemqo plans by default.
func exampleSession(t *testing.T) []mqo.Script {
	t.Helper()
	paths, err := filepath.Glob("../../examples/session/*.scope")
	if err != nil || len(paths) == 0 {
		t.Fatalf("examples/session: %v (%d scripts)", err, len(paths))
	}
	slices.Sort(paths)
	var out []mqo.Script
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mqo.Script{Name: filepath.Base(p), Src: string(src)})
	}
	return out
}
