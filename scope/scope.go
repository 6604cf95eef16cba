// Package scope is the public API of the library: a SCOPE-style cloud
// query processor whose optimizer exploits common subexpressions in a
// cost-based way, reproducing "Exploiting Common Subexpressions for
// Cloud Query Processing" (ICDE 2012).
//
// Basic use:
//
//	db := scope.New()
//	db.RegisterStats("test.log", 2_000_000_000,
//	    scope.ColumnStats{Name: "A", Distinct: 20_000}, ...)
//	q, err := db.Compile(script)
//	p, err := q.Optimize()                  // CSE framework on
//	base, err := q.Optimize(scope.WithCSE(false)) // conventional baseline
//	fmt.Println(p.Explain(), p.EstimatedCost())
//
// To actually run a plan, load physical data with LoadTable and call
// Plan.Execute: the plan runs on a deterministic simulated
// shared-nothing cluster and returns every OUTPUT file's rows.
package scope

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/lint"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/relop"
	"repro/internal/rules"
	"repro/internal/share"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// DB holds a statistics catalog and (optionally) physical tables for
// execution.
type DB struct {
	cat *stats.Catalog
	fs  *exec.FileStore
}

// New returns an empty DB. Plans are costed on a 100-machine cluster
// unless WithMachines says otherwise; execution takes its partition
// count per call.
func New() *DB {
	return &DB{cat: stats.NewCatalog(), fs: exec.NewFileStore()}
}

// ColumnStats declares optimizer statistics for one column.
type ColumnStats struct {
	Name string
	// Distinct is the estimated number of distinct values.
	Distinct int64
}

// RegisterStats declares a file's statistics so the optimizer can
// cost plans over it. Execution additionally needs LoadTable.
func (db *DB) RegisterStats(path string, rows int64, cols ...ColumnStats) {
	ts := &stats.TableStats{Rows: rows, Columns: map[string]stats.ColumnStats{}}
	for _, c := range cols {
		ts.Columns[c.Name] = stats.ColumnStats{Distinct: c.Distinct, AvgBytes: 8}
	}
	db.cat.Put(path, ts)
}

// LoadTable stores physical rows for a file so plans reading it can
// execute. Supported cell types: int, int64, float64, string.
func (db *DB) LoadTable(path string, columns []string, rows [][]any) error {
	schema := make(relop.Schema, len(columns))
	for i, c := range columns {
		schema[i] = relop.Column{Name: c, Type: relop.TInt}
	}
	t := &exec.Table{Schema: schema}
	for ri, r := range rows {
		if len(r) != len(columns) {
			return fmt.Errorf("scope: row %d has %d cells, want %d", ri, len(r), len(columns))
		}
		row := make(relop.Row, len(r))
		for ci, cell := range r {
			v, err := toValue(cell)
			if err != nil {
				return fmt.Errorf("scope: row %d column %q: %w", ri, columns[ci], err)
			}
			row[ci] = v
			if ri == 0 {
				schema[ci].Type = v.Kind
			}
		}
		t.Rows = append(t.Rows, row)
	}
	db.fs.Put(path, t)
	return nil
}

func toValue(cell any) (relop.Value, error) {
	switch v := cell.(type) {
	case int:
		return relop.IntVal(int64(v)), nil
	case int64:
		return relop.IntVal(v), nil
	case float64:
		return relop.FloatVal(v), nil
	case string:
		return relop.StringVal(v), nil
	default:
		return relop.Value{}, fmt.Errorf("unsupported value type %T", cell)
	}
}

// FormatScript canonically formats a SCOPE script (one statement per
// line, canonical keyword casing, fully parenthesized expressions).
// It returns an error when the script does not parse.
func FormatScript(src string) (string, error) {
	s, err := sqlparse.Parse(src)
	if err != nil {
		return "", err
	}
	return sqlparse.Format(s), nil
}

// Query is a compiled script.
type Query struct {
	db  *DB
	src string
}

// Compile parses and binds a SCOPE script against the DB's catalog.
func (db *DB) Compile(src string) (*Query, error) {
	// Bind once now to surface errors early; Optimize compiles afresh
	// per call, because a compiled script is good for one optimization.
	if _, err := share.Compile(src, db.cat, false); err != nil {
		return nil, err
	}
	return &Query{db: db, src: src}, nil
}

// optConfig collects Optimize options.
type optConfig struct {
	opts opt.Options
}

// Option configures one Optimize call.
type Option func(*optConfig)

// WithCSE toggles the common-subexpression framework (default on).
// Off yields the conventional-optimizer baseline.
func WithCSE(on bool) Option {
	return func(c *optConfig) { c.opts.EnableCSE = on }
}

// WithMachines sets the costed cluster size.
func WithMachines(n int) Option {
	return func(c *optConfig) { c.opts.Cluster.Machines = n }
}

// WithBudget bounds optimization time; phase 2 stops at the next
// round boundary once exceeded, keeping the best plan found.
func WithBudget(d time.Duration) Option {
	return func(c *optConfig) { c.opts.Timeout = d }
}

// WithMaxRounds caps phase-2 re-optimization rounds per LCA.
func WithMaxRounds(n int) Option {
	return func(c *optConfig) { c.opts.MaxRoundsPerLCA = n }
}

// WithOptWorkers sets the phase-2 round-evaluation pool width
// (default: GOMAXPROCS). Plans, costs, and round traces are identical
// at any width; only optimization wall clock changes.
func WithOptWorkers(n int) Option {
	return func(c *optConfig) { c.opts.Workers = n }
}

// WithSCOPEProfile restricts plans to sort-merge pipelines, matching
// the execution stack of the paper's prototype (Fig. 8 plan shapes).
func WithSCOPEProfile() Option {
	return func(c *optConfig) { c.opts.Rules = rules.SCOPEProfile() }
}

// WithoutIndependence disables the Sec. VIII-A independent-shared-
// groups optimization (ablation).
func WithoutIndependence() Option {
	return func(c *optConfig) { c.opts.DisableIndependence = true }
}

// WithoutRanking disables the Sec. VIII-B/C ranking extensions
// (ablation).
func WithoutRanking() Option {
	return func(c *optConfig) { c.opts.DisableRanking = true }
}

// WithProjectMerge enables the optional transformation composing
// adjacent projections into a single Compute stage.
func WithProjectMerge() Option {
	return func(c *optConfig) { c.opts.Rules.EnableProjectMerge = true }
}

// WithFilterPushdown enables the optional transformation moving
// filters below adjacent projections.
func WithFilterPushdown() Option {
	return func(c *optConfig) { c.opts.Rules.EnableFilterPushdown = true }
}

// WithLocalSharingOnly reproduces the pre-paper similar-subexpression
// techniques: shared subexpressions are planned under their locally
// optimal physical properties and every consumer compensates on top.
// Useful as a baseline to isolate the value of cost-based property
// reconciliation.
func WithLocalSharingOnly() Option {
	return func(c *optConfig) { c.opts.LocalSharingOnly = true }
}

// Stats summarizes the optimizer's search effort.
type Stats struct {
	// SharedGroups is the number of common subexpressions identified.
	SharedGroups int
	// Rounds is the number of phase-2 re-optimization rounds run.
	Rounds int
	// NaiveRounds is what a full cartesian product would have run.
	NaiveRounds int
	// RoundsPruned counts rounds aborted by the branch-and-bound cost
	// bound before their exact DAG cost was known (included in Rounds).
	RoundsPruned int
	// BudgetExhausted reports that the optimization budget stopped
	// phase 2 early.
	BudgetExhausted bool
}

// Plan is an optimized physical plan.
type Plan struct {
	db   *DB
	res  *opt.Result
	opts opt.Options
}

// Optimize optimizes the query and returns the best plan. Each call
// performs a fresh optimization.
func (q *Query) Optimize(options ...Option) (*Plan, error) {
	cfg := optConfig{opts: opt.DefaultOptions()}
	for _, o := range options {
		o(&cfg)
	}
	c, err := share.Compile(q.src, q.db.cat, cfg.opts.EnableCSE)
	if err != nil {
		return nil, err
	}
	res, err := share.Optimize(c, cfg.opts)
	if err != nil {
		return nil, err
	}
	return &Plan{db: q.db, res: res, opts: cfg.opts}, nil
}

// EstimatedCost returns the plan's DAG-aware estimated cost.
func (p *Plan) EstimatedCost() float64 { return p.res.Cost }

// Phase1Cost returns the cost of the plan phase 1 alone would have
// chosen (equal to EstimatedCost when CSE is off or nothing shared).
func (p *Plan) Phase1Cost() float64 { return p.res.Phase1Cost }

// Explain renders the plan as an indented operator tree with
// delivered physical properties, estimated rows, and per-operator
// costs; shared spools print once.
func (p *Plan) Explain() string { return plan.Format(p.res.Plan) }

// DOT renders the plan DAG in Graphviz dot syntax.
func (p *Plan) DOT(title string) string { return plan.DOT(p.res.Plan, title) }

// Stats reports optimizer search effort.
func (p *Plan) Stats() Stats {
	s := p.res.Stats
	return Stats{
		SharedGroups:    s.SharedGroups,
		Rounds:          s.Rounds,
		NaiveRounds:     s.NaiveCombinations,
		RoundsPruned:    s.RoundsPruned,
		BudgetExhausted: s.BudgetExhausted,
	}
}

// OptimizeTime returns the wall-clock optimization duration.
func (p *Plan) OptimizeTime() time.Duration { return p.res.Duration }

// Round describes one phase-2 re-optimization round: the property
// combination enforced at the shared groups and the resulting plan
// cost.
type Round struct {
	Pins string
	Cost float64
	Best bool
	// Pruned marks a round aborted by the branch-and-bound cost bound;
	// its Cost is +Inf.
	Pruned bool
	// Fallback marks the synthetic trace left when no evaluated round
	// produced a plan (budget expired or every combination infeasible).
	Fallback bool
}

// Rounds traces the phase-2 rounds in evaluation order — how the
// optimizer searched the enforceable property combinations.
func (p *Plan) Rounds() []Round {
	out := make([]Round, len(p.res.Rounds))
	for i, r := range p.res.Rounds {
		out[i] = Round{Pins: r.Pins, Cost: r.Cost, Best: r.Best, Pruned: r.Pruned, Fallback: r.Fallback}
	}
	return out
}

// Validate statically checks the plan's physical soundness (property
// consistency, colocation, clustering, join co-partitioning). The
// optimizer only emits valid plans; Validate exists for auditing and
// for plans loaded or transformed externally.
func (p *Plan) Validate() error { return opt.ValidatePlan(p.res.Plan) }

// Diagnostic is one static-analysis finding on a plan: a stable code
// (P1–P5 for the global sharing invariants, V1–V7 for local physical
// soundness), the analyzer that produced it, a severity ("error",
// "warning", "info"), an operator-path location, and a message.
type Diagnostic struct {
	Code     string
	Analyzer string
	Severity string
	Pos      string
	Message  string
}

// String renders the diagnostic in "pos: severity: message [code]"
// compiler format.
func (d Diagnostic) String() string {
	pos := d.Pos
	if pos == "" {
		pos = "<plan>"
	}
	return fmt.Sprintf("%s: %s: %s [%s]", pos, d.Severity, d.Message, d.Code)
}

// Lint runs the full static-analysis catalog on the plan — the global
// common-subexpression invariants of the paper (single spool per
// shared group, pin consistency across consumer paths, DAG/tree cost
// coherence, missed CSEs, redundant enforcers) plus the local
// validation checks — and returns the findings, empty when clean.
// Sharing bugs are silent cost regressions rather than wrong answers,
// so Lint catches what Execute-based testing cannot.
//
// Codes passed as disable are dropped from the result — the
// programmatic counterpart of scopelint's -disable flag. A code that
// no catalog registers is reported as a synthetic S4 error instead of
// being silently ignored, so a typo cannot quietly disable nothing.
func (p *Plan) Lint(disable ...string) []Diagnostic {
	ds := p.res.Lint
	if ds == nil {
		ds = opt.LintPlan(p.res, p.opts)
	}
	known := map[string]bool{}
	for _, c := range append(lint.Codes(), opt.ValidationCodes()...) {
		known[c] = true
	}
	off := map[string]bool{}
	var out []Diagnostic
	for _, c := range disable {
		if !known[c] {
			out = append(out, Diagnostic{
				Code:     "S4",
				Analyzer: "ignore-directive",
				Severity: lint.Error.String(),
				Message:  fmt.Sprintf("Lint(disable): unknown diagnostic code %q", c),
			})
			continue
		}
		off[c] = true
	}
	for _, d := range ds {
		if off[d.Code] {
			continue
		}
		out = append(out, Diagnostic{
			Code:     d.Code,
			Analyzer: d.Analyzer,
			Severity: d.Severity.String(),
			Pos:      d.Pos,
			Message:  d.Message,
		})
	}
	return out
}

// JSON encodes the physical plan (DAG structure preserved) for
// external tooling or caching; LoadPlan restores it.
func (p *Plan) JSON() ([]byte, error) { return plan.MarshalPlan(p.res.Plan) }

// LoadPlan decodes a plan produced by Plan.JSON. The loaded plan can
// be explained, validated, and executed against this DB's tables;
// optimizer statistics (rounds, phase-1 cost) are not part of the
// encoding.
func (db *DB) LoadPlan(data []byte) (*Plan, error) {
	root, err := plan.UnmarshalPlan(data)
	if err != nil {
		return nil, err
	}
	model := cost.NewModel(cost.DefaultCluster())
	c := plan.DAGCost(root, model)
	return &Plan{db: db, res: &opt.Result{Plan: root, Cost: c, Phase1Plan: root, Phase1Cost: c}}, nil
}

// ExplainAnalyze executes the plan on the simulated cluster and
// renders the operator tree annotated with estimated versus actual
// rows and bytes, the per-node q-error, and MISESTIMATE flags on
// nodes whose estimate missed by more than the default threshold —
// the estimator's report card on this query. machines must be
// positive; it is part of the experiment, not a preference with a
// fallback.
func (p *Plan) ExplainAnalyze(machines int) (string, error) {
	x, err := share.Execute(context.Background(), p.res.Plan,
		share.Config{FS: p.db.fs, Machines: machines, Analyze: true}, nil)
	if err != nil {
		return "", err
	}
	return x.Analysis.String(), nil
}

// Result is one OUTPUT file produced by Execute.
type Result struct {
	Columns []string
	Rows    [][]any
}

// ExecStats meters one execution on the simulated cluster.
type ExecStats struct {
	DiskBytesRead    int64
	DiskBytesWritten int64
	NetBytes         int64
	RowsProcessed    int64
	Exchanges        int
	SpoolsShared     int
}

// Execute runs the plan on the simulated cluster over the tables
// loaded with LoadTable, returning every OUTPUT file keyed by path.
// Execution validates the physical properties the plan relies on
// (colocation and clustering) and fails loudly on violations.
// machines must be positive. Partitions execute across a worker pool
// sized to the available CPUs; results are identical to a serial run.
func (p *Plan) Execute(machines int) (map[string]*Result, ExecStats, error) {
	x, err := share.Execute(context.Background(), p.res.Plan,
		share.Config{FS: p.db.fs, Machines: machines}, nil)
	if err != nil {
		return nil, ExecStats{}, err
	}
	results := make(map[string]*Result, len(x.Outputs))
	for path, t := range x.Outputs {
		results[path] = tableResult(t)
	}
	return results, execStats(x.Metrics), nil
}

// tableResult converts an executed table into the public Result form.
func tableResult(t *exec.Table) *Result {
	r := &Result{Columns: t.Schema.Names()}
	for _, row := range t.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			switch v.Kind {
			case relop.TInt:
				cells[i] = v.I
			case relop.TFloat:
				cells[i] = v.F
			default:
				cells[i] = v.S
			}
		}
		r.Rows = append(r.Rows, cells)
	}
	return r
}

// execStats converts one execution's meter into the public form.
func execStats(m exec.Metrics) ExecStats {
	return ExecStats{
		DiskBytesRead:    m.DiskBytesRead,
		DiskBytesWritten: m.DiskBytesWritten,
		NetBytes:         m.NetBytes,
		RowsProcessed:    m.RowsProcessed,
		Exchanges:        m.Exchanges,
		SpoolsShared:     m.SpoolMaterializations,
	}
}
