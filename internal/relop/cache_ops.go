package relop

import (
	"fmt"

	"repro/internal/props"
)

// PhysCacheScan reads a materialized result that a previous script in
// the same session produced for an equivalent subexpression. It is a
// physical leaf: instead of recomputing the subexpression the cluster
// loads the artifact from the shared FileStore and attaches it in the
// partitions its spool delivered.
//
// Part and Order are the physical properties the artifact was
// materialized under (Sec. V property history carried across queries):
// a hit that recorded hash{A,B} partitioning satisfies a consumer
// requiring colocation on {A,B} without a repartition.
type PhysCacheScan struct {
	// Path is the FileStore path of the cached artifact.
	Path string
	// Columns is the artifact's schema.
	Columns Schema
	// Part is the partitioning recorded at materialization time.
	Part props.Partitioning
	// Order is the per-machine sort order recorded at
	// materialization time.
	Order props.Ordering
	// FP is the Definition-1 fingerprint of the subexpression whose
	// result the artifact holds.
	FP uint64
}

// Kind implements Operator.
func (*PhysCacheScan) Kind() OpKind { return KindCacheScan }

// Arity implements Operator.
func (*PhysCacheScan) Arity() int { return 0 }

// Sig implements Operator.
func (c *PhysCacheScan) Sig() string {
	return fmt.Sprintf("CacheScan(%s fp=%x part=%s order=%s)", c.Path, c.FP, c.Part, c.Order.Key())
}

// String implements Operator.
func (c *PhysCacheScan) String() string {
	return fmt.Sprintf("CacheScan (%s)", c.Path)
}
