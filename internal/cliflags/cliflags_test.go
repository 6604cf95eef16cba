package cliflags

import (
	"flag"
	"io"
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
	if err := fs.Parse([]string{"-machines", "7", "-lint", "-trace", "out.json"}); err != nil {
		t.Fatal(err)
	}
	if *m != 7 || !*l || *tr != "out.json" {
		t.Errorf("parsed machines=%d lint=%v trace=%q", *m, *l, *tr)
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
