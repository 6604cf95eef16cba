package difftest

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/relop"
)

// TestDiffReportsFirstDivergence pins the comparator the whole matrix
// rests on: a comparator that never reports would pass every cell.
func TestDiffReportsFirstDivergence(t *testing.T) {
	tab := func(col string, vals ...relop.Value) *exec.Table {
		tb := &exec.Table{Schema: relop.Schema{{Name: col, Type: relop.TInt}}}
		for _, v := range vals {
			tb.Rows = append(tb.Rows, relop.Row{v})
		}
		return tb
	}
	one, two := relop.IntVal(1), relop.IntVal(2)
	want := map[string]*exec.Table{"a": tab("A", one, two), "b": tab("A", one)}
	for _, c := range []struct {
		got    map[string]*exec.Table
		exact  bool
		report string // "" when the outputs must agree
	}{
		{map[string]*exec.Table{"a": tab("A", one, two), "b": tab("A", one)}, true, ""},
		{map[string]*exec.Table{"a": tab("A", two, one), "b": tab("A", one)}, false, ""},
		{map[string]*exec.Table{"a": tab("A", two, one), "b": tab("A", one)}, true, `"a" row 0`},
		{map[string]*exec.Table{"a": tab("A", one, relop.FloatVal(2)), "b": tab("A", one)}, true, `"a" row 1`},
		{map[string]*exec.Table{"a": tab("A", one, two), "b": tab("A", one, one)}, false, `"b": rows 2 vs 1`},
		{map[string]*exec.Table{"a": tab("A", one, two)}, true, `"b": present in one run only`},
		{map[string]*exec.Table{"a": tab("A", one, two), "b": tab("B", one)}, false, `"b": columns (B int) vs (A int), rows 1 vs 1`},
		{map[string]*exec.Table{"a": tab("A", one, two), "b": tab("B", one)}, true, `"b": columns (B int) vs (A int), rows 1 vs 1`},
	} {
		if d := diff(c.got, want, c.exact); c.report == "" && d != "" || !strings.Contains(d, c.report) {
			t.Errorf("exact=%v: diff reported %q, want %q", c.exact, d, c.report)
		}
	}
	typed := map[string]*exec.Table{"a": tab("A", one, two), "b": {Schema: relop.Schema{{Name: "A", Type: relop.TFloat}}, Rows: []relop.Row{{one}}}}
	if d := diff(typed, want, true); !strings.Contains(d, `"b": columns (A float), want (A int)`) {
		t.Errorf("exact: diff reported %q for a column of another type", d)
	}
	if d := diff(typed, want, false); d != "" {
		t.Errorf("multiset: diff reported %q for a column of another type", d)
	}
}
