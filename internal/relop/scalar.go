package relop

import (
	"fmt"
	"strings"

	"repro/internal/props"
)

// Scalar is a row-level expression: a column reference, a literal, or
// an operator tree over them. Scalars appear in projections, filter
// predicates, and aggregate arguments.
type Scalar interface {
	// String renders the expression in SQL-ish syntax; it doubles as
	// the canonical signature used for structural comparison, so two
	// scalars are equal iff their String renderings are equal.
	String() string
	// Columns returns the set of column names the expression reads.
	Columns() props.ColSet
	// ResultType reports the expression's type given an input schema.
	ResultType(s Schema) Type
}

// ColRef references a column of the input schema by name.
type ColRef struct {
	Name string
}

// Col is a convenience constructor for ColRef.
func Col(name string) *ColRef { return &ColRef{Name: name} }

// String implements Scalar.
func (c *ColRef) String() string { return c.Name }

// Columns implements Scalar.
func (c *ColRef) Columns() props.ColSet { return props.NewColSet(c.Name) }

// ResultType implements Scalar.
func (c *ColRef) ResultType(s Schema) Type {
	if i := s.Index(c.Name); i >= 0 {
		return s[i].Type
	}
	return TInt
}

// ConstExpr is a literal value.
type ConstExpr struct {
	Val Value
}

// Lit is a convenience constructor for ConstExpr.
func Lit(v Value) *ConstExpr { return &ConstExpr{Val: v} }

// String implements Scalar.
func (c *ConstExpr) String() string { return c.Val.String() }

// Columns implements Scalar.
func (c *ConstExpr) Columns() props.ColSet { return props.NewColSet() }

// ResultType implements Scalar.
func (c *ConstExpr) ResultType(Schema) Type { return c.Val.Kind }

// BinKind enumerates binary scalar operators.
type BinKind int

// Binary operator kinds, in precedence-free enumeration order.
const (
	OpAdd BinKind = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binNames = map[BinKind]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String renders the operator token.
func (k BinKind) String() string { return binNames[k] }

// IsComparison reports whether the operator yields a boolean.
func (k BinKind) IsComparison() bool { return k >= OpEq && k <= OpGe }

// BinExpr is a binary operation over two scalars.
type BinExpr struct {
	Op   BinKind
	L, R Scalar
}

// Bin is a convenience constructor for BinExpr.
func Bin(op BinKind, l, r Scalar) *BinExpr { return &BinExpr{Op: op, L: l, R: r} }

// String implements Scalar.
func (b *BinExpr) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Columns implements Scalar.
func (b *BinExpr) Columns() props.ColSet {
	return b.L.Columns().Union(b.R.Columns())
}

// ResultType implements Scalar.
func (b *BinExpr) ResultType(s Schema) Type {
	if b.Op.IsComparison() || b.Op == OpAnd || b.Op == OpOr {
		return TInt // booleans are 0/1 ints
	}
	lt, rt := b.L.ResultType(s), b.R.ResultType(s)
	if lt == TFloat || rt == TFloat || b.Op == OpDiv {
		return TFloat
	}
	if lt == TString || rt == TString {
		return TString
	}
	return TInt
}

// NamedExpr is a projection item: an expression with an output name.
type NamedExpr struct {
	Expr Scalar
	As   string
}

// String renders "expr AS name".
func (n NamedExpr) String() string {
	if cr, ok := n.Expr.(*ColRef); ok && cr.Name == n.As {
		return n.As
	}
	return n.Expr.String() + " AS " + n.As
}

// namedList renders a list of projection items.
func namedList(items []NamedExpr) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}

// EvalScalar evaluates expr against row under schema s. It is the
// reference evaluator used by the execution simulator; plan
// compilation may pre-resolve column indexes for speed, but semantics
// are defined here.
func EvalScalar(expr Scalar, row Row, s Schema) (Value, error) {
	switch e := expr.(type) {
	case *ColRef:
		i := s.Index(e.Name)
		if i < 0 {
			return Value{}, fmt.Errorf("column %q not in schema %v", e.Name, s)
		}
		return row[i], nil
	case *ConstExpr:
		return e.Val, nil
	case *BinExpr:
		l, err := EvalScalar(e.L, row, s)
		if err != nil {
			return Value{}, err
		}
		// Short-circuit booleans.
		if e.Op == OpAnd && l.I == 0 && l.Kind == TInt {
			return IntVal(0), nil
		}
		if e.Op == OpOr && l.I != 0 && l.Kind == TInt {
			return IntVal(1), nil
		}
		r, err := EvalScalar(e.R, row, s)
		if err != nil {
			return Value{}, err
		}
		return evalBin(e.Op, l, r)
	default:
		return Value{}, fmt.Errorf("unknown scalar %T", expr)
	}
}

// EvalBin applies a binary operator to two already-evaluated operands
// with EvalScalar's exact promotion and comparison semantics (but no
// short-circuiting — both operands are given). The vectorized kernels
// use it as the per-position fallback when a column pair has no typed
// fast path, so kernels and row evaluation share one definition of
// the arithmetic.
func EvalBin(op BinKind, l, r Value) (Value, error) { return evalBin(op, l, r) }

func evalBin(op BinKind, l, r Value) (Value, error) {
	boolVal := func(b bool) Value {
		if b {
			return IntVal(1)
		}
		return IntVal(0)
	}
	switch op {
	case OpAdd:
		return l.Add(r), nil
	case OpSub:
		if l.Kind == TInt && r.Kind == TInt {
			return IntVal(l.I - r.I), nil
		}
		return FloatVal(l.AsFloat() - r.AsFloat()), nil
	case OpMul:
		if l.Kind == TInt && r.Kind == TInt {
			return IntVal(l.I * r.I), nil
		}
		return FloatVal(l.AsFloat() * r.AsFloat()), nil
	case OpDiv:
		d := r.AsFloat()
		if d == 0 {
			return Value{}, fmt.Errorf("division by zero")
		}
		return FloatVal(l.AsFloat() / d), nil
	case OpEq:
		return boolVal(l.Compare(r) == 0), nil
	case OpNe:
		return boolVal(l.Compare(r) != 0), nil
	case OpLt:
		return boolVal(l.Compare(r) < 0), nil
	case OpLe:
		return boolVal(l.Compare(r) <= 0), nil
	case OpGt:
		return boolVal(l.Compare(r) > 0), nil
	case OpGe:
		return boolVal(l.Compare(r) >= 0), nil
	case OpAnd:
		return boolVal(truthy(l) && truthy(r)), nil
	case OpOr:
		return boolVal(truthy(l) || truthy(r)), nil
	default:
		return Value{}, fmt.Errorf("unknown binary op %v", op)
	}
}

// Truthy reports the boolean interpretation of a value — nonzero
// numbers and nonempty strings — as used by AND/OR evaluation. Note
// that the executor's filter is stricter: it keeps a row only when
// the predicate value is an *integer* nonzero.
func Truthy(v Value) bool { return truthy(v) }

func truthy(v Value) bool {
	switch v.Kind {
	case TInt:
		return v.I != 0
	case TFloat:
		return v.F != 0
	default:
		return v.S != ""
	}
}

// SubstituteScalar rewrites expr, replacing each column reference by
// its binding (when present). It is used to compose adjacent
// projections: the outer projection's inputs are the inner's outputs.
func SubstituteScalar(expr Scalar, bindings map[string]Scalar) Scalar {
	switch e := expr.(type) {
	case *ColRef:
		if b, ok := bindings[e.Name]; ok {
			return b
		}
		return e
	case *ConstExpr:
		return e
	case *BinExpr:
		l := SubstituteScalar(e.L, bindings)
		r := SubstituteScalar(e.R, bindings)
		if l == e.L && r == e.R {
			return e
		}
		return &BinExpr{Op: e.Op, L: l, R: r}
	default:
		return e
	}
}
