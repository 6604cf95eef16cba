package props

import (
	"fmt"
	"strings"
)

// PartitionKind classifies how a row set is distributed across the
// machines of the cluster.
type PartitionKind int

const (
	// PartAny, as a requirement, accepts any distribution. It is not
	// a valid delivered kind.
	PartAny PartitionKind = iota
	// PartSerial places all rows on a single machine.
	PartSerial
	// PartHash distributes rows by a hash of Cols: rows that agree on
	// Cols land on the same machine.
	PartHash
	// PartRandom is a nondeterministic distribution (e.g. round-robin
	// or whatever the file system handed us). It colocates nothing.
	PartRandom
	// PartBroadcast replicates the full row set on every machine.
	// It satisfies no grouping requirement (aggregating a broadcast
	// set on every machine would duplicate results) and exists for
	// the inner side of broadcast joins.
	PartBroadcast
	// PartRange splits rows into ordered key ranges over SortCols:
	// partition i's keys all sort before partition i+1's, and rows
	// equal on the SortCols columns share a partition. Range
	// partitioning plus a matching local sort yields a globally
	// sorted data set — how SCOPE produces ordered output files in
	// parallel.
	PartRange
)

// String renders the kind for plan output.
func (k PartitionKind) String() string {
	switch k {
	case PartAny:
		return "any"
	case PartSerial:
		return "serial"
	case PartHash:
		return "hash"
	case PartRandom:
		return "random"
	case PartBroadcast:
		return "broadcast"
	case PartRange:
		return "range"
	default:
		return fmt.Sprintf("partkind(%d)", int(k))
	}
}

// Partitioning describes either a delivered distribution or a
// distribution requirement.
//
// As a requirement with Kind == PartHash, Cols is the upper end of the
// paper's range notation: Exact == false means the range [∅, Cols]
// ("partitioned on any non-empty subset of Cols"), while Exact == true
// means the degenerate range [Cols, Cols] ("partitioned on exactly
// Cols") — the form phase 2 pins at shared groups so every consumer
// sees the same physical distribution.
//
// As a delivered property, Cols is the exact hash key and Exact is
// ignored.
type Partitioning struct {
	Kind  PartitionKind
	Cols  ColSet
	Exact bool
	// SortCols is the ordered key of a PartRange distribution (the
	// ranges are over this tuple order); Cols mirrors its column set
	// so subset-based colocation reasoning applies uniformly.
	SortCols Ordering
}

// AnyPartitioning is the no-requirement partitioning.
func AnyPartitioning() Partitioning { return Partitioning{Kind: PartAny} }

// SerialPartitioning requires or describes a single-machine row set.
func SerialPartitioning() Partitioning { return Partitioning{Kind: PartSerial} }

// HashPartitioning describes data hash-distributed on exactly cols, or
// (as a requirement) the range [∅, cols].
func HashPartitioning(cols ColSet) Partitioning {
	return Partitioning{Kind: PartHash, Cols: cols}
}

// ExactHashPartitioning is the requirement "hash-partitioned on
// exactly cols" — the paper's [S, S] range.
func ExactHashPartitioning(cols ColSet) Partitioning {
	return Partitioning{Kind: PartHash, Cols: cols, Exact: true}
}

// RandomPartitioning describes a distribution with no colocation
// guarantee (delivered only).
func RandomPartitioning() Partitioning { return Partitioning{Kind: PartRandom} }

// BroadcastPartitioning describes a fully replicated row set.
func BroadcastPartitioning() Partitioning { return Partitioning{Kind: PartBroadcast} }

// RangePartitioning describes data split into ordered ranges over the
// given key order (or, as a requirement, demands exactly that).
func RangePartitioning(order Ordering) Partitioning {
	return Partitioning{Kind: PartRange, Cols: order.Columns(), SortCols: order}
}

// IsAny reports whether p imposes no requirement.
func (p Partitioning) IsAny() bool { return p.Kind == PartAny }

// Satisfies reports whether delivered distribution d meets requirement
// r, per the SCOPE lattice:
//
//   - PartAny is satisfied by everything except broadcast: replicated
//     data is only semantically valid where it was explicitly
//     requested (the inner of a broadcast join); letting it satisfy a
//     vacuous requirement would let a consumer that merges partitions
//     read every replica.
//   - PartSerial is satisfied only by serial.
//   - Non-exact PartHash on R is satisfied by hash on any non-empty
//     subset of R (rows equal on R are equal on the subset, hence
//     colocated), and degenerately by serial.
//   - Exact PartHash on R is satisfied only by hash on exactly R.
//   - PartBroadcast is satisfied only by broadcast.
func (d Partitioning) Satisfies(r Partitioning) bool {
	switch r.Kind {
	case PartAny:
		return d.Kind != PartBroadcast
	case PartSerial:
		return d.Kind == PartSerial
	case PartHash:
		if r.Exact {
			return d.Kind == PartHash && d.Cols.Equal(r.Cols)
		}
		if d.Kind == PartSerial {
			return true
		}
		// Hash on a subset colocates; so does a range distribution
		// whose key columns are a subset (equal key tuples share a
		// range partition).
		if d.Kind == PartRange {
			return !d.Cols.Empty() && d.Cols.SubsetOf(r.Cols)
		}
		return d.Kind == PartHash && !d.Cols.Empty() && d.Cols.SubsetOf(r.Cols)
	case PartBroadcast:
		return d.Kind == PartBroadcast
	case PartRange:
		// A range requirement asks for partitions ordered by its key
		// prefix: finer range keys still deliver it; serial data does
		// trivially (one partition).
		if d.Kind == PartSerial {
			return true
		}
		return d.Kind == PartRange && d.SortCols.Satisfies(r.SortCols)
	default:
		return false
	}
}

// Project rewrites a delivered partitioning through a projection that
// keeps only the columns in kept (with possible renames applied by the
// caller beforehand). If any hash or range key column is projected
// away the colocation guarantee degrades to random.
func (d Partitioning) Project(kept ColSet) Partitioning {
	switch d.Kind {
	case PartHash:
		if d.Cols.SubsetOf(kept) {
			return d
		}
		return RandomPartitioning()
	case PartRange:
		if d.Cols.SubsetOf(kept) {
			return d
		}
		// A prefix of the range key survives: partitions stay
		// ordered by the surviving prefix.
		if pfx := d.SortCols.Project(kept); !pfx.Empty() {
			return RangePartitioning(pfx)
		}
		return RandomPartitioning()
	default:
		return d
	}
}

// String renders the partitioning for plan output, e.g. "hash{B}",
// "hash[∅,{A,B,C}]" for a subset requirement, "range(B,A)", or
// "serial".
func (p Partitioning) String() string {
	switch p.Kind {
	case PartHash:
		if p.Exact {
			return "hash" + p.Cols.String()
		}
		return "hash[∅," + p.Cols.String() + "]"
	case PartRange:
		return "range" + p.SortCols.String()
	default:
		return p.Kind.String()
	}
}

// Key returns a canonical string identifying the partitioning.
func (p Partitioning) Key() string {
	var b strings.Builder
	p.writeKey(&b)
	return b.String()
}

func (p Partitioning) writeKey(b *strings.Builder) {
	switch p.Kind {
	case PartHash:
		if p.Exact {
			b.WriteString("h=")
		} else {
			b.WriteString("h<=")
		}
		for i, c := range p.Cols.cols {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c)
		}
	case PartRange:
		b.WriteString("r=")
		p.SortCols.writeKey(b)
	default:
		b.WriteString(p.Kind.String())
	}
}

// Equal reports structural equality of two partitionings.
func (p Partitioning) Equal(q Partitioning) bool {
	return p.Kind == q.Kind && p.Exact == q.Exact && p.Cols.Equal(q.Cols) &&
		p.SortCols.Equal(q.SortCols)
}
