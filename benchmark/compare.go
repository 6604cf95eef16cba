package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// v by the exclusive method (Python's statistics.quantiles default),
// which is what the driver's spread check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.50), at(0.75)
}

// summary is one metric on one workload across a file's sets.
type summary struct {
	median, q1, q3 float64
	n              int
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.n < 2 || s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}

func summarize(f *resultFile, workload, metric string) (summary, bool) {
	var v []float64
	for _, set := range f.Sets {
		for _, r := range set {
			if x, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
				v = append(v, x)
			}
		}
	}
	if len(v) == 0 {
		return summary{}, false
	}
	q1, q2, q3 := quartiles(v)
	return summary{median: q2, q1: q1, q3: q3, n: len(v)}, true
}

// printSpread prints, per workload and end-to-end metric, the median,
// quartiles and relative spread over the file's sets: the table the
// bounds are fixed from.
func printSpread(w io.Writer, f *resultFile) {
	fmt.Fprintf(w, "\nspread over %d sets (seed %d, %d s, %d clients)\n", len(f.Sets), f.Env.Seed, f.Env.Seconds, f.Env.Clients)
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, sp := range catalogue() {
		for _, d := range endToEndDefs {
			s, ok := summarize(f, sp.name, d.Name)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-14s %-20s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%\n",
				sp.name, d.Name, s.median, s.q1, s.q3, 100*s.spread(), 100*d.Bound)
		}
	}
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema || len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: not a %s result file with at least one set", path, resultSchema)
	}
	return &f, nil
}

// verdict judges new against old on one metric: unresolved when either
// side's own spread exceeds the bound, worse when the median moved
// the wrong way by more than the bound, better when it moved the
// right way by more than both spreads, unchanged otherwise.
func verdict(d metricDef, o, n summary) string {
	if o.median == 0 {
		return "unresolved"
	}
	change := (n.median - o.median) / math.Abs(o.median)
	if d.Better == "higher" {
		change = -change
	}
	noise := math.Max(o.spread(), n.spread())
	switch {
	case noise > d.Bound:
		return "unresolved"
	case change > d.Bound:
		return "worse"
	case change < 0 && -change > noise:
		return "better"
	}
	return "unchanged"
}

// compareFiles prints the per-workload, per-metric table of two result
// files. It refuses files measured in different environments: the
// commit is what a comparison varies, everything else must match.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	o, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	n, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	oe, ne := o.Env, n.Env
	oe.Commit, ne.Commit = "", ""
	if oe != ne {
		return fmt.Errorf("environment stamps differ, refusing to compare:\n  old %+v\n  new %+v", o.Env, n.Env)
	}
	fmt.Fprintf(w, "old %s (%d sets) against new %s (%d sets); %s, %d CPUs, seed %d, %d s, %d clients\n",
		o.Env.Commit, len(o.Sets), n.Env.Commit, len(n.Sets), oe.Go, oe.NProc, oe.Seed, oe.Seconds, oe.Clients)
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %8s %6s %8s  %s\n", "workload", "metric", "old", "new", "change", "bound", "spread", "verdict")
	for _, sp := range catalogue() {
		for _, d := range endToEndDefs {
			os, ok1 := summarize(o, sp.name, d.Name)
			ns, ok2 := summarize(n, sp.name, d.Name)
			if !ok1 || !ok2 {
				continue
			}
			change := 0.0
			if os.median != 0 {
				change = (ns.median - os.median) / math.Abs(os.median)
			}
			fmt.Fprintf(w, "%-14s %-20s %12.4f %12.4f %+7.1f%% %5.0f%% %7.2f%%  %s\n",
				sp.name, d.Name, os.median, ns.median, 100*change, 100*d.Bound,
				100*math.Max(os.spread(), ns.spread()), verdict(d, os, ns))
		}
	}
	return nil
}
