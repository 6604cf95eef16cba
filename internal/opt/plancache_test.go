package opt

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/relop"
)

// storeStub is a result cache with an empty plan store.
type storeStub struct{}

func (storeStub) Lookup(core.Subexpr, string, relop.Schema) (CacheEntry, bool) {
	return CacheEntry{}, false
}

func (storeStub) SavedSearch(PlanKey) (*SavedSearch, bool) { return nil, false }

// TestPlanKeyCoversOptions walks Options by reflection and changes one
// leaf field at a time. Each field must be keyed (the plan key moves),
// bypassing (the search reads no plan store) or declared plan-neutral
// below (the key holds and the store is still read). A new field is
// keyed by default; declaring it neutral needs an entry here.
func TestPlanKeyCoversOptions(t *testing.T) {
	neutral := map[string]bool{"Workers": true, "Cache": true}
	bypassing := map[string]bool{"Timeout": true, "ForceMaterialize": true, "WorkloadCovered": true, "Tracer": true}
	m := buildScript(t, scriptS1)
	base := DefaultOptions()
	base.Cache = storeStub{}
	if New(m, base).planStore() == nil {
		t.Fatal("default options with a plan-store cache read no plan store")
	}
	baseKey := planKey(m, base)
	bv := reflect.ValueOf(base)
	for i := 0; i < bv.NumField(); i++ {
		name := bv.Type().Field(i).Name
		variants := changed(t, name, bv.Field(i))
		if len(variants) == 0 {
			t.Errorf("%s: no way to change it", name)
		}
		for _, v := range variants {
			o := base
			reflect.ValueOf(&o).Elem().Field(i).Set(v)
			reads := New(m, o).planStore() != nil
			moved := planKey(m, o) != baseKey
			switch {
			case bypassing[name]:
				if reads {
					t.Errorf("%s = %v: the search still reads the plan store", name, v)
				}
			case neutral[name]:
				if moved || !reads {
					t.Errorf("%s = %v: declared plan-neutral, yet key moved=%t, store read=%t", name, v, moved, reads)
				}
			case !moved:
				t.Errorf("%s = %v: not keyed, not bypassing, not declared plan-neutral", name, v)
			}
		}
	}
}

// TestPlanKeyCoversMemo is TestPlanKeyCoversOptions' memo-side twin: a
// fresh build of the same script keeps the key, and perturbing one
// plan-affecting field of one group — rows, row bytes, one distinct
// count, one column type, the Shared flag — moves it.
func TestPlanKeyCoversMemo(t *testing.T) {
	opts := DefaultOptions()
	baseKey := planKey(buildScript(t, scriptS1), opts)
	for _, p := range []struct {
		name    string
		perturb func(g *memo.Group)
	}{
		{"unperturbed", nil},
		{"rows", func(g *memo.Group) { g.Props.Rel.Rows++ }},
		{"row bytes", func(g *memo.Group) { g.Props.Rel.RowBytes++ }},
		{"distinct", func(g *memo.Group) { g.Props.Rel.Distinct[g.Props.Schema[0].Name]++ }},
		{"column type", func(g *memo.Group) {
			g.Props.Schema = slices.Clone(g.Props.Schema)
			g.Props.Schema[0].Type = relop.TString
		}},
		{"shared", func(g *memo.Group) { g.Shared = !g.Shared }},
	} {
		m := buildScript(t, scriptS1)
		if p.perturb != nil {
			i := slices.IndexFunc(m.Groups(), func(g *memo.Group) bool {
				return len(g.Props.Schema) > 0 && g.Props.Schema[0].Type != relop.TString &&
					g.Props.Rel.Distinct[g.Props.Schema[0].Name] > 0
			})
			if i < 0 {
				t.Fatal("S1 has no group with a typed, counted first column")
			}
			p.perturb(m.Groups()[i])
		}
		if moved := planKey(m, opts) != baseKey; moved != (p.perturb != nil) {
			t.Errorf("%s: plan key moved=%t", p.name, moved)
		}
	}
}

// changed returns values of v's type that each differ from v in one
// leaf: one per field of a struct, one otherwise.
func changed(t *testing.T, name string, v reflect.Value) []reflect.Value {
	t.Helper()
	nv := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Struct:
		var out []reflect.Value
		for j := 0; j < v.NumField(); j++ {
			for _, f := range changed(t, name+"."+v.Type().Field(j).Name, v.Field(j)) {
				s := reflect.New(v.Type()).Elem()
				s.Set(v)
				s.Field(j).Set(f)
				out = append(out, s)
			}
		}
		return out
	case reflect.Bool:
		nv.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		nv.SetInt(v.Int() + 1)
	case reflect.Float64:
		nv.SetFloat(v.Float()*2 + 1)
	case reflect.String:
		nv.SetString(v.String() + "x")
	case reflect.Map:
		nv = reflect.MakeMap(v.Type())
		nv.SetMapIndex(reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem())
	case reflect.Func:
		nv = reflect.MakeFunc(v.Type(), func(args []reflect.Value) []reflect.Value {
			out := make([]reflect.Value, v.Type().NumOut())
			for k := range out {
				out[k] = reflect.New(v.Type().Out(k)).Elem()
			}
			return out
		})
	case reflect.Pointer:
		nv = reflect.New(v.Type().Elem())
	case reflect.Interface:
		nv.Set(reflect.ValueOf(&storeStub{}))
	default:
		t.Fatalf("%s: add a case for kind %s", name, v.Kind())
	}
	return []reflect.Value{nv}
}

// TestArtifactsOnePerSpool: the artifact list names each distinct
// materialization once, with the costs a walk of the plan prices. A
// plan that references one spool through two nodes (same group, same
// context key) lists it once.
func TestArtifactsOnePerSpool(t *testing.T) {
	o := New(buildScript(t, scriptS1), DefaultOptions())
	res, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifacts) == 0 {
		t.Fatal("S1 lists no artifact")
	}
	for _, a := range res.Artifacts {
		in := a.Input()
		if a.ID != o.ids[in.Group] || a.Sig != o.sigs[in.Group] || a.Build != plan.TreeCost(a.Spool) ||
			a.Read != o.model.SpoolReadCost(in.Rel, in.Dlvd.Part) {
			t.Errorf("artifact %s: record disagrees with its plan", a.ID)
		}
	}
	dup := *res.Artifacts[0].Spool
	res.Plan.Children = append(res.Plan.Children, &dup)
	if got := o.artifacts(res.Plan); !reflect.DeepEqual(got, res.Artifacts) {
		t.Errorf("a duplicated spool reference changed the list: %d artifacts, want %d", len(got), len(res.Artifacts))
	}
}
