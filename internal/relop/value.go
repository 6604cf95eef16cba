// Package relop defines the relational algebra shared by the whole
// system: typed values, schemas, scalar expressions, aggregate
// functions, and the logical and physical operators a SCOPE-style
// script compiles into. The memo, the rules, the optimizer, the plan
// representation, and the execution simulator all speak this algebra.
package relop

import (
	"fmt"
	"hash/fnv"
	"strconv"
)

// Type enumerates the column types of the SCOPE subset.
type Type int

const (
	// TInt is a 64-bit signed integer.
	TInt Type = iota
	// TFloat is a 64-bit float.
	TFloat
	// TString is a UTF-8 string.
	TString
)

// String renders the type name.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Value is a tagged scalar value. Exactly the field selected by Kind
// is meaningful.
type Value struct {
	Kind Type
	I    int64
	F    float64
	S    string
}

// IntVal builds an integer value.
func IntVal(i int64) Value { return Value{Kind: TInt, I: i} }

// FloatVal builds a float value.
func FloatVal(f float64) Value { return Value{Kind: TFloat, F: f} }

// StringVal builds a string value.
func StringVal(s string) Value { return Value{Kind: TString, S: s} }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == TInt {
		return float64(v.I)
	}
	return v.F
}

// Compare orders two values of the same kind: -1, 0, or +1. Values of
// different numeric kinds compare by numeric value; a string never
// equals a number.
func (v Value) Compare(w Value) int {
	if v.Kind == TString || w.Kind == TString {
		if v.Kind != TString || w.Kind != TString {
			// Numbers sort before strings, deterministically.
			if v.Kind == TString {
				return 1
			}
			return -1
		}
		switch {
		case v.S < w.S:
			return -1
		case v.S > w.S:
			return 1
		default:
			return 0
		}
	}
	if v.Kind == TInt && w.Kind == TInt {
		switch {
		case v.I < w.I:
			return -1
		case v.I > w.I:
			return 1
		default:
			return 0
		}
	}
	a, b := v.AsFloat(), w.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports value equality under Compare semantics.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Hash returns a stable hash of the value, consistent with Equal for
// same-kind values. The execution simulator's repartition operator
// uses it, so it must be deterministic across runs.
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	switch v.Kind {
	case TInt:
		var buf [8]byte
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	case TFloat:
		// Hash floats via their decimal rendering so 2.0 == 2.0
		// regardless of provenance.
		h.Write([]byte(strconv.FormatFloat(v.F, 'g', -1, 64)))
	case TString:
		h.Write([]byte(v.S))
	}
	return h.Sum64()
}

// String renders the value.
func (v Value) String() string {
	switch v.Kind {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return strconv.Quote(v.S)
	default:
		return "?"
	}
}

// AppendText appends exactly what String renders to b.
func (v Value) AppendText(b []byte) []byte {
	switch v.Kind {
	case TInt:
		return strconv.AppendInt(b, v.I, 10)
	case TFloat:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case TString:
		return strconv.AppendQuote(b, v.S)
	default:
		return append(b, '?')
	}
}

// Add returns v + w with numeric promotion; string addition
// concatenates.
func (v Value) Add(w Value) Value {
	if v.Kind == TString && w.Kind == TString {
		return StringVal(v.S + w.S)
	}
	if v.Kind == TInt && w.Kind == TInt {
		return IntVal(v.I + w.I)
	}
	return FloatVal(v.AsFloat() + w.AsFloat())
}

// Row is a tuple of values positionally aligned with a Schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// HashCols hashes the row restricted to the given column indexes,
// combining per-value hashes order-insensitively is WRONG for rows,
// so the combination is positional.
func (r Row) HashCols(idx []int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, i := range idx {
		h = (h ^ r[i].Hash()) * prime
	}
	return h
}
