package props

import "strings"

// SortCol is one column of a sort order.
type SortCol struct {
	Col  string
	Desc bool
}

// String renders the column as "A" or "A desc".
func (c SortCol) String() string {
	if c.Desc {
		return c.Col + " desc"
	}
	return c.Col
}

// Ordering is a (possibly empty) per-machine sort order, most
// significant column first. An empty Ordering as a requirement means
// "no order required"; as a delivered property it means "unordered".
type Ordering []SortCol

// NewOrdering builds an ascending ordering over cols.
func NewOrdering(cols ...string) Ordering {
	o := make(Ordering, len(cols))
	for i, c := range cols {
		o[i] = SortCol{Col: c}
	}
	return o
}

// Empty reports whether the ordering has no columns.
func (o Ordering) Empty() bool { return len(o) == 0 }

// Satisfies reports whether delivered order d meets required order r:
// r must be a prefix of d (rows sorted on (B,A,C) are sorted on (B,A)).
func (d Ordering) Satisfies(r Ordering) bool {
	if len(r) > len(d) {
		return false
	}
	for i := range r {
		if d[i] != r[i] {
			return false
		}
	}
	return true
}

// Columns returns the set of columns mentioned by the ordering.
func (o Ordering) Columns() ColSet {
	if len(o) == 0 {
		return ColSet{}
	}
	cols := make([]string, len(o))
	for i, c := range o {
		cols[i] = c.Col
	}
	return colSetOf(cols)
}

// Prefix returns the first n columns of the ordering (or all of it if
// n exceeds its length).
func (o Ordering) Prefix(n int) Ordering {
	if n >= len(o) {
		return o
	}
	return o[:n]
}

// Equal reports whether two orderings are identical.
func (o Ordering) Equal(p Ordering) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// HasPrefixSet reports whether some prefix of o covers exactly the
// column set s (in any order). A stream aggregation grouping on s can
// consume rows ordered by o iff this holds: equal grouping keys are
// then adjacent.
func (o Ordering) HasPrefixSet(s ColSet) bool {
	if s.Empty() {
		return true
	}
	if len(o) < s.Len() {
		return false
	}
	return o.Prefix(s.Len()).Columns().Equal(s)
}

// Project keeps the longest prefix of o whose columns are all in kept;
// the remainder of the order is meaningless once an earlier column is
// projected away.
func (o Ordering) Project(kept ColSet) Ordering {
	for i, c := range o {
		if !kept.Contains(c.Col) {
			return o[:i]
		}
	}
	return o
}

// String renders the ordering as "(B,A,C)".
func (o Ordering) String() string {
	parts := make([]string, len(o))
	for i, c := range o {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Key returns a canonical string identifying the ordering.
func (o Ordering) Key() string {
	var b strings.Builder
	o.writeKey(&b)
	return b.String()
}

func (o Ordering) writeKey(b *strings.Builder) {
	for i, c := range o {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(c.Col)
		if c.Desc {
			b.WriteString(" desc")
		}
	}
}

// OrderingsWithPrefixSet enumerates candidate orderings over the
// column set all whose prefix covers the set req. It is used to pick
// the sort orders worth requesting from a child: a stream aggregation
// on req wants its input clustered on req, and any order that leads
// with the req columns (in any permutation) and continues with the
// remaining columns works. To avoid factorial blow-up only rotations
// of the sorted column lists are generated, which is enough to cover
// every "leads with column X" choice that partitioning interacts with.
func OrderingsWithPrefixSet(all, req ColSet) []Ordering {
	if !req.SubsetOf(all) {
		return nil
	}
	lead := req.Cols()
	rest := all.Difference(req).Cols()
	if len(lead) == 0 {
		if len(rest) == 0 {
			return nil
		}
		return []Ordering{NewOrdering(rest...)}
	}
	// Rotations of a duplicate-free column list are pairwise distinct.
	out := make([]Ordering, 0, len(lead))
	for r := 0; r < len(lead); r++ {
		o := make(Ordering, 0, len(lead)+len(rest))
		for _, c := range lead[r:] {
			o = append(o, SortCol{Col: c})
		}
		for _, c := range lead[:r] {
			o = append(o, SortCol{Col: c})
		}
		for _, c := range rest {
			o = append(o, SortCol{Col: c})
		}
		out = append(out, o)
	}
	return out
}
