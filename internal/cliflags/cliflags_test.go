package cliflags

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestClusterFlagsDefaultsAndOverrides(t *testing.T) {
	fs := newFS()
	c := ClusterFlags(fs, 8, 4)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Machines != 8 || c.Workers != 4 {
		t.Fatalf("defaults = %+v, want machines=8 workers=4", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default cluster invalid: %v", err)
	}

	fs = newFS()
	c = ClusterFlags(fs, 8, 4)
	if err := fs.Parse([]string{"-machines", "3", "-workers", "16"}); err != nil {
		t.Fatal(err)
	}
	if c.Machines != 3 || c.Workers != 16 {
		t.Fatalf("parsed = %+v, want machines=3 workers=16", c)
	}
}

func TestClusterValidateRejectsNonPositive(t *testing.T) {
	for _, c := range []Cluster{{0, 4}, {-1, 4}, {8, 0}, {8, -2}} {
		c := c
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestSharedFlagRegistration(t *testing.T) {
	fs := newFS()
	m := Machines(fs, 5)
	l := Lint(fs)
	tr := Trace(fs)
	wl := WorkersList(fs, "1,4")
	if err := fs.Parse([]string{"-machines", "7", "-lint", "-trace", "out.json", "-workers", "2,8"}); err != nil {
		t.Fatal(err)
	}
	if *m != 7 || !*l || *tr != "out.json" || *wl != "2,8" {
		t.Errorf("parsed machines=%d lint=%v trace=%q workers=%q", *m, *l, *tr, *wl)
	}
}

func TestParseWorkersList(t *testing.T) {
	got, err := ParseWorkersList(" 1, 4,8 ")
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 8}) {
		t.Errorf("ParseWorkersList = %v, %v; want [1 4 8]", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "a", "1,,2", "1;2"} {
		if _, err := ParseWorkersList(bad); err == nil {
			t.Errorf("ParseWorkersList(%q) accepted", bad)
		}
	}
}

func TestMemBudgetFlag(t *testing.T) {
	fs := newFS()
	b := MemBudget(fs)
	if err := fs.Parse([]string{"-membudget", "65536"}); err != nil {
		t.Fatal(err)
	}
	if *b != 65536 {
		t.Errorf("parsed membudget=%d", *b)
	}

	fs2 := newFS()
	b2 := MemBudget(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *b2 != 0 {
		t.Errorf("default membudget=%d, want 0", *b2)
	}
}
