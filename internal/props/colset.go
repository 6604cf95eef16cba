// Package props implements the physical-property machinery of a
// SCOPE-style distributed query optimizer: data partitioning across a
// shared-nothing cluster, sort orders, and the required/delivered
// property satisfaction rules described in "Incorporating Partitioning
// and Parallel Plans into the SCOPE Optimizer" (ICDE 2010) and used by
// "Exploiting Common Subexpressions for Cloud Query Processing"
// (ICDE 2012).
//
// The central subtlety reproduced here is the partitioning lattice: a
// data set hash-partitioned on a column set S is also partitioned on
// every superset of S (all rows agreeing on {A,B,C} necessarily agree
// on {B}, hence live on the same machine). Partitioning requirements
// are therefore ranges [lo, hi]; the common request "partitioned on
// {A,B,C} or any subset thereof" is the range [∅, {A,B,C}], and the
// exact scheme enforced at a shared group in phase 2 is the degenerate
// range [S, S].
package props

import (
	"sort"
	"strings"
)

// ColSet is an immutable, deduplicated, sorted set of column names.
// The zero value is the empty set. All operations return new sets and
// never mutate their receivers, so ColSets may be freely shared.
type ColSet struct {
	cols []string
}

// NewColSet builds a ColSet from the given column names, removing
// duplicates.
func NewColSet(cols ...string) ColSet {
	if len(cols) == 0 {
		return ColSet{}
	}
	cp := make([]string, len(cols))
	copy(cp, cols)
	return colSetOf(cp)
}

// colSetOf builds a ColSet from a slice it takes ownership of.
func colSetOf(cols []string) ColSet {
	if !sort.StringsAreSorted(cols) {
		sort.Strings(cols)
	}
	out := cols[:1]
	for _, c := range cols[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return ColSet{cols: out}
}

// Len reports the number of columns in the set.
func (s ColSet) Len() int { return len(s.cols) }

// Empty reports whether the set has no columns.
func (s ColSet) Empty() bool { return len(s.cols) == 0 }

// Cols returns the columns in sorted order. The returned slice must
// not be modified.
func (s ColSet) Cols() []string { return s.cols }

// Singleton returns the set holding only the i-th column (in sorted
// order), sharing the receiver's storage.
func (s ColSet) Singleton(i int) ColSet { return ColSet{cols: s.cols[i : i+1 : i+1]} }

// Contains reports whether col is a member of the set.
func (s ColSet) Contains(col string) bool {
	i := sort.SearchStrings(s.cols, col)
	return i < len(s.cols) && s.cols[i] == col
}

// SubsetOf reports whether every column of s is also in t.
func (s ColSet) SubsetOf(t ColSet) bool {
	if len(s.cols) > len(t.cols) {
		return false
	}
	i, j := 0, 0
	for i < len(s.cols) && j < len(t.cols) {
		switch {
		case s.cols[i] == t.cols[j]:
			i++
			j++
		case s.cols[i] > t.cols[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s.cols)
}

// Equal reports whether s and t contain exactly the same columns.
func (s ColSet) Equal(t ColSet) bool {
	if len(s.cols) != len(t.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != t.cols[i] {
			return false
		}
	}
	return true
}

// Union returns the set of columns in s or t.
func (s ColSet) Union(t ColSet) ColSet {
	return NewColSet(append(append([]string{}, s.cols...), t.cols...)...)
}

// Intersect returns the set of columns in both s and t.
func (s ColSet) Intersect(t ColSet) ColSet {
	var out []string
	i, j := 0, 0
	for i < len(s.cols) && j < len(t.cols) {
		switch {
		case s.cols[i] == t.cols[j]:
			out = append(out, s.cols[i])
			i++
			j++
		case s.cols[i] < t.cols[j]:
			i++
		default:
			j++
		}
	}
	return ColSet{cols: out}
}

// Difference returns the columns of s that are not in t.
func (s ColSet) Difference(t ColSet) ColSet {
	var out []string
	for _, c := range s.cols {
		if !t.Contains(c) {
			out = append(out, c)
		}
	}
	return ColSet{cols: out}
}

// Add returns a new set with col added.
func (s ColSet) Add(col string) ColSet {
	if s.Contains(col) {
		return s
	}
	return NewColSet(append([]string{col}, s.cols...)...)
}

// Intersects reports whether s and t share at least one column.
func (s ColSet) Intersects(t ColSet) bool {
	i, j := 0, 0
	for i < len(s.cols) && j < len(t.cols) {
		switch {
		case s.cols[i] == t.cols[j]:
			return true
		case s.cols[i] < t.cols[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// String renders the set as "{a,b,c}".
func (s ColSet) String() string {
	return "{" + strings.Join(s.cols, ",") + "}"
}

// Key returns a canonical string usable as a map key.
func (s ColSet) Key() string { return strings.Join(s.cols, ",") }

// Subsets enumerates the non-empty subsets of s, smallest first, up to
// limit subsets (limit <= 0 means no limit). This is the expansion the
// optimizer applies when recording a range partitioning requirement
// [∅, S] into the history of a shared group (paper Sec. V): each
// subset is a concrete scheme that satisfies the range. For wide sets
// the enumeration is capped by limit; singletons and the full set are
// always produced first so the most useful schemes survive the cap.
func (s ColSet) Subsets(limit int) []ColSet {
	n := len(s.cols)
	if n == 0 {
		return nil
	}
	var out []ColSet
	emit := func(cs ColSet) bool {
		out = append(out, cs)
		return limit > 0 && len(out) >= limit
	}
	// Singletons first, then the full set, then the rest by size.
	for _, c := range s.cols {
		if emit(NewColSet(c)) {
			return out
		}
	}
	if n > 1 {
		if emit(s) {
			return out
		}
	}
	if n > 20 {
		// Guard against exponential blow-up: with more than 20
		// columns only singletons and the full set are enumerated.
		return out
	}
	for size := 2; size < n; size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			cols := make([]string, size)
			for i, k := range idx {
				cols[i] = s.cols[k]
			}
			if emit(ColSet{cols: cols}) {
				return out
			}
			// Next combination.
			i := size - 1
			for i >= 0 && idx[i] == n-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return out
}
