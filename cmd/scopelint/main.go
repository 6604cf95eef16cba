// Command scopelint runs the repository's static-analysis catalog
// over SCOPE scripts and the plans the optimizer produces for them:
// the script analyzers (S1 unused/shadowed assignments, S2 unknown
// columns, S3 dead statements), the global sharing invariants of the
// CSE framework (P1–P5), and the local physical-soundness checks
// (V1–V7). Sharing bugs are silent cost regressions rather than wrong
// answers, which is exactly what execution-based testing cannot catch
// — scopelint exists to catch them statically.
//
// Usage:
//
//	scopelint my.scope other.scope   # lint script files (default stats)
//	scopelint -script s1             # lint a builtin workload
//	scopelint -json my.scope         # machine-readable findings
//	scopelint -source-only my.scope  # skip optimization and plan checks
//	scopelint -disable P4,S2 my.scope # drop findings by code
//
// Individual findings are suppressed in the script itself with a
// `//lint:ignore CODE reason` comment on the flagged line or the line
// above; the S4 analyzer rejects malformed, unknown, or unused
// directives.
//
// The exit status is 1 when any finding is reported, 2 on usage or
// optimizer errors (including an unknown code in -disable), and 0
// when every target is clean.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/lint"
	"repro/internal/opt"
	"repro/internal/share"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scopelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	builtin := fs.String("script", "", "lint a builtin workload: s1 s2 s3 s4 fig5 ls1 ls2")
	sourceOnly := fs.Bool("source-only", false, "run only the script analyzers, skip optimization")
	noCSE := fs.Bool("nocse", false, "lint the conventional plan instead of the CSE plan")
	disable := fs.String("disable", "", "comma-separated diagnostic codes to drop from the report (e.g. P4,S2)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	disabled, err := parseDisable(*disable)
	if err != nil {
		fmt.Fprintln(stderr, "scopelint:", err)
		return 2
	}

	var targets []*datagen.Workload
	if *builtin != "" {
		w, err := bench.BuiltinWorkload(*builtin)
		if err != nil {
			fmt.Fprintln(stderr, "scopelint:", err)
			return 2
		}
		targets = append(targets, w)
	}
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "scopelint:", err)
			return 2
		}
		targets = append(targets, &datagen.Workload{Name: path, Script: string(src), Cat: stats.NewCatalog()})
	}
	if len(targets) == 0 {
		fmt.Fprintln(stderr, "scopelint: no targets; pass script files or -script <builtin>")
		fs.Usage()
		return 2
	}

	report := &lint.Report{}
	for _, w := range targets {
		r := lint.AnalyzeScriptSource(w.Script, w.Name)
		report.Merge(r)
		if *sourceOnly || r.Errors() > 0 {
			continue // an unparsable or unbound script has no plan to lint
		}
		c, err := share.Compile(w.Script, w.Cat, !*noCSE)
		if err != nil {
			fmt.Fprintf(stderr, "scopelint: %s: %v\n", w.Name, err)
			return 2
		}
		opts := opt.DefaultOptions()
		opts.EnableCSE = !*noCSE
		opts.Lint = true
		res, err := share.Optimize(c, opts)
		if err != nil {
			fmt.Fprintf(stderr, "scopelint: %s: optimize: %v\n", w.Name, err)
			return 2
		}
		for _, d := range res.Lint {
			d.Pos = w.Name + ": " + d.Pos
			report.Diags = append(report.Diags, d)
		}
	}
	report = report.Filter(disabled...)
	// Human output ranks by severity; -json output is diffed across
	// runs and sorts by file so the order is reproducible even when
	// two targets produce findings of equal severity.
	if *jsonOut {
		report.SortByFile()
	} else {
		report.Sort()
	}

	if *jsonOut {
		data, err := report.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "scopelint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	} else {
		for _, d := range report.Diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if !report.Empty() {
		if !*jsonOut {
			fmt.Fprintf(stdout, "%d finding(s)\n", len(report.Diags))
		}
		return 1
	}
	return 0
}

// parseDisable splits and validates a -disable value against the full
// registered code set (script + plan + reserved + validation). An
// unknown code is a usage error: a typo like -disable P9 silently
// disabling nothing would defeat the flag's purpose.
func parseDisable(value string) ([]string, error) {
	if value == "" {
		return nil, nil
	}
	known := map[string]bool{}
	all := append(lint.Codes(), opt.ValidationCodes()...)
	for _, c := range all {
		known[c] = true
	}
	var out []string
	for _, c := range strings.Split(value, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if !known[c] {
			return nil, fmt.Errorf("-disable: unknown diagnostic code %q (registered: %s)",
				c, strings.Join(all, " "))
		}
		out = append(out, c)
	}
	return out, nil
}
