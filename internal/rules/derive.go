package rules

import (
	"repro/internal/props"
	"repro/internal/relop"
)

// DeriveDelivered computes the physical properties a physical
// operator delivers given its children's delivered properties — the
// paper's UpdateDlvdProp.
func DeriveDelivered(op relop.Operator, children []props.Delivered) props.Delivered {
	child := func(i int) props.Delivered {
		if i < len(children) {
			return children[i]
		}
		return props.Delivered{Part: props.RandomPartitioning()}
	}
	switch o := op.(type) {
	case *relop.PhysExtract:
		// A distributed file arrives with no colocation or order
		// guarantee.
		return props.Delivered{Part: props.RandomPartitioning()}
	case *relop.PhysFilter:
		return child(0)
	case *relop.PhysProject:
		return projectDelivered(o.Items, child(0))
	case *relop.Sort:
		d := child(0)
		d.Order = o.Order
		return d
	case *relop.Repartition:
		return props.Delivered{Part: exactDelivered(o.To), Order: o.MergeOrder}
	case *relop.StreamAgg:
		return aggDelivered(o.Keys, child(0), true)
	case *relop.HashAgg:
		return aggDelivered(o.Keys, child(0), false)
	case *relop.SortMergeJoin:
		d := child(0)
		// Only the key-prefix of the left order survives the merge:
		// rows within one key value interleave with the right side.
		keys := props.NewColSet(o.LeftKeys...)
		var ord props.Ordering
		for _, sc := range d.Order {
			if !keys.Contains(sc.Col) {
				break
			}
			ord = append(ord, sc)
		}
		return props.Delivered{Part: d.Part, Order: ord}
	case *relop.HashJoin:
		l := child(0)
		if l.Part.Kind == props.PartBroadcast {
			// The probe side carries the distribution.
			return props.Delivered{Part: child(1).Part}
		}
		return props.Delivered{Part: l.Part}
	case *relop.PhysSpool:
		return child(0)
	case *relop.PhysCacheScan:
		// A cache hit delivers exactly the properties the artifact was
		// materialized under — the recorded half of the cross-query
		// property history.
		return props.Delivered{Part: o.Part, Order: o.Order}
	case *relop.PhysOutput:
		return child(0)
	case *relop.PhysSequence:
		return props.Delivered{Part: props.SerialPartitioning()}
	default:
		return props.Delivered{Part: props.RandomPartitioning()}
	}
}

// exactDelivered converts a repartition target into the delivered
// distribution. Delivered hash partitionings carry Exact=true: the
// column set is the concrete hash key, not the upper end of a range.
func exactDelivered(to props.Partitioning) props.Partitioning {
	if to.Kind == props.PartHash {
		to.Exact = true
	}
	return to
}

// aggDelivered projects the child's delivered properties onto an
// aggregation's output: partition columns must all be grouping keys
// to survive; the order survives as its longest key-only prefix.
func aggDelivered(keys []string, d props.Delivered, keepOrder bool) props.Delivered {
	keySet := props.NewColSet(keys...)
	out := props.Delivered{Part: d.Part.Project(keySet)}
	if keepOrder {
		out.Order = d.Order.Project(keySet)
	}
	return out
}

// projectDelivered maps delivered properties through a projection's
// renames; properties over computed or dropped columns degrade.
func projectDelivered(items []relop.NamedExpr, d props.Delivered) props.Delivered {
	// Forward map: input column → output name (first pass-through
	// wins).
	fwd := map[string]string{}
	for _, it := range items {
		if cr, ok := it.Expr.(*relop.ColRef); ok {
			if _, dup := fwd[cr.Name]; !dup {
				fwd[cr.Name] = it.As
			}
		}
	}
	out := props.Delivered{Part: props.RandomPartitioning()}
	switch d.Part.Kind {
	case props.PartHash:
		var cols []string
		ok := true
		for _, c := range d.Part.Cols.Cols() {
			n, found := fwd[c]
			if !found {
				ok = false
				break
			}
			cols = append(cols, n)
		}
		if ok {
			out.Part = props.HashPartitioning(props.NewColSet(cols...))
			out.Part.Exact = d.Part.Exact
		}
	case props.PartRange:
		// The surviving renamed prefix of the range key keeps the
		// partitions ordered; a dropped lead column degrades to
		// random.
		var mapped props.Ordering
		for _, sc := range d.Part.SortCols {
			n, found := fwd[sc.Col]
			if !found {
				break
			}
			mapped = append(mapped, props.SortCol{Col: n, Desc: sc.Desc})
		}
		if !mapped.Empty() {
			out.Part = props.RangePartitioning(mapped)
		}
	default:
		out.Part = d.Part
	}
	for _, sc := range d.Order {
		n, found := fwd[sc.Col]
		if !found {
			break
		}
		out.Order = append(out.Order, props.SortCol{Col: n, Desc: sc.Desc})
	}
	return out
}

// EnforcerTargets returns the concrete repartitioning schemes worth
// trying to satisfy a partition requirement from a plan that misses
// it: the exact scheme for exact requirements, and for range
// requirements the full column set plus each singleton (the cheapest
// schemes to reach and the ones that keep downstream options open),
// capped by cfg.MaxEnforceTargets.
func EnforcerTargets(req props.Partitioning, cfg Config) []props.Partitioning {
	maxT := cfg.MaxEnforceTargets
	if maxT <= 0 {
		maxT = 6
	}
	switch req.Kind {
	case props.PartSerial, props.PartBroadcast:
		return []props.Partitioning{{Kind: req.Kind}}
	case props.PartRange:
		return []props.Partitioning{props.RangePartitioning(req.SortCols)}
	case props.PartHash:
		if req.Exact {
			return []props.Partitioning{props.HashPartitioning(req.Cols)}
		}
		out := make([]props.Partitioning, 1, 1+req.Cols.Len())
		out[0] = props.HashPartitioning(req.Cols)
		if req.Cols.Len() > 1 {
			for i := 0; i < req.Cols.Len() && len(out) < maxT; i++ {
				out = append(out, props.HashPartitioning(req.Cols.Singleton(i)))
			}
		}
		return out
	default:
		return nil
	}
}
