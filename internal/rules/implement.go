package rules

import (
	"repro/internal/memo"
	"repro/internal/props"
	"repro/internal/relop"
)

// Alt is one physical implementation alternative of a logical
// expression: the physical operator plus the properties to request
// from each child (the output of the paper's DetChildProp).
type Alt struct {
	Op        relop.Operator
	ChildReqs []props.Required
}

// Implement enumerates the physical implementation alternatives of a
// logical memo expression under the given requirement. The
// requirement only steers which child property sets are worth
// requesting (e.g. aligning a stream aggregation's sort candidates
// with a required output order); satisfaction itself is checked by
// the optimizer, which adds enforcers where needed.
func Implement(m *memo.Memo, g *memo.Group, e *memo.Expr, req props.Required, cfg Config) []Alt {
	switch op := e.Op.(type) {
	case *relop.Extract:
		return []Alt{{Op: &relop.PhysExtract{
			Path: op.Path, Columns: op.Columns, Extractor: op.Extractor, FileID: op.FileID,
		}}}
	case *relop.Project:
		return implementProject(op, req)
	case *relop.Filter:
		return []Alt{
			{Op: &relop.PhysFilter{Pred: op.Pred, Selectivity: op.Selectivity}, ChildReqs: []props.Required{req}},
			{Op: &relop.PhysFilter{Pred: op.Pred, Selectivity: op.Selectivity}, ChildReqs: []props.Required{props.AnyRequired()}},
		}
	case *relop.GroupBy:
		return implementGroupBy(op, req, cfg)
	case *relop.Join:
		return implementJoin(m, e, op, req, cfg)
	case *relop.Spool:
		return []Alt{
			{Op: &relop.PhysSpool{}, ChildReqs: []props.Required{req}},
			{Op: &relop.PhysSpool{}, ChildReqs: []props.Required{props.AnyRequired()}},
		}
	case *relop.Output:
		if !op.Order.Empty() {
			// A globally sorted file: either range-partition on the
			// output order and sort locally (parallel, SCOPE's
			// approach), or gather one sorted serial stream.
			phys := &relop.PhysOutput{Path: op.Path, Order: op.Order}
			return []Alt{
				{Op: phys, ChildReqs: []props.Required{{Part: props.RangePartitioning(op.Order), Order: op.Order}}},
				{Op: phys, ChildReqs: []props.Required{{Part: props.SerialPartitioning(), Order: op.Order}}},
			}
		}
		return []Alt{{Op: &relop.PhysOutput{Path: op.Path}, ChildReqs: []props.Required{props.AnyRequired()}}}
	case *relop.Union:
		reqs := make([]props.Required, len(e.Children))
		for i := range reqs {
			reqs[i] = props.AnyRequired()
		}
		return []Alt{{Op: &relop.PhysUnion{}, ChildReqs: reqs}}
	case *relop.Sequence:
		reqs := make([]props.Required, len(e.Children))
		for i := range reqs {
			reqs[i] = props.AnyRequired()
		}
		return []Alt{{Op: &relop.PhysSequence{}, ChildReqs: reqs}}
	default:
		return nil
	}
}

// implementProject pushes the requirement through the projection when
// every required column is a simple pass-through (possibly renamed),
// and always offers the unconstrained alternative.
func implementProject(op *relop.Project, req props.Required) []Alt {
	phys := &relop.PhysProject{Items: op.Items}
	alts := []Alt{{Op: phys, ChildReqs: []props.Required{props.AnyRequired()}}}
	if mapped, ok := mapReqThroughProject(op.Items, req); ok && !mapped.IsAny() {
		alts = append([]Alt{{Op: phys, ChildReqs: []props.Required{mapped}}}, alts...)
	}
	return alts
}

// projectInverse returns output-name → input-column for the simple
// pass-through items of a projection.
func projectInverse(items []relop.NamedExpr) map[string]string {
	inv := map[string]string{}
	for _, it := range items {
		if cr, ok := it.Expr.(*relop.ColRef); ok {
			inv[it.As] = cr.Name
		}
	}
	return inv
}

// mapReqThroughProject rewrites a requirement on the projection's
// output into one on its input; ok is false when a required column is
// computed (not a pass-through).
func mapReqThroughProject(items []relop.NamedExpr, req props.Required) (props.Required, bool) {
	inv := projectInverse(items)
	out := props.Required{Part: props.AnyPartitioning()}
	switch req.Part.Kind {
	case props.PartHash:
		var cols []string
		for _, c := range req.Part.Cols.Cols() {
			src, ok := inv[c]
			if !ok {
				return props.Required{}, false
			}
			cols = append(cols, src)
		}
		out.Part = props.Partitioning{Kind: props.PartHash, Cols: props.NewColSet(cols...), Exact: req.Part.Exact}
	case props.PartRange:
		mapped := make(props.Ordering, 0, len(req.Part.SortCols))
		for _, sc := range req.Part.SortCols {
			src, ok := inv[sc.Col]
			if !ok {
				return props.Required{}, false
			}
			mapped = append(mapped, props.SortCol{Col: src, Desc: sc.Desc})
		}
		out.Part = props.RangePartitioning(mapped)
	default:
		out.Part = req.Part
	}
	for _, sc := range req.Order {
		src, ok := inv[sc.Col]
		if !ok {
			return props.Required{}, false
		}
		out.Order = append(out.Order, props.SortCol{Col: src, Desc: sc.Desc})
	}
	return out, true
}

// implementGroupBy generates stream and hash aggregation
// alternatives. Local-phase aggregations impose no distribution
// requirement on their child; Global and Single phases require the
// child hash-partitioned on (a subset of) the keys.
func implementGroupBy(op *relop.GroupBy, req props.Required, cfg Config) []Alt {
	keySet := props.NewColSet(op.Keys...)
	var partReqs []props.Partitioning
	if op.Phase == relop.AggLocal {
		partReqs = []props.Partitioning{props.AnyPartitioning()}
	} else {
		// Aggregation preserves any partitioning over its keys, so
		// the group's own requirement passes through to the child
		// when its columns are keys — this is what lets a property
		// set pinned at a shared group (e.g. exact hash{B}) steer a
		// single exchange of the raw input instead of an exchange
		// per level. The generic range requirement comes second.
		switch {
		case req.Part.Kind == props.PartHash && req.Part.Cols.SubsetOf(keySet) && !req.Part.Cols.Empty():
			partReqs = append(partReqs, req.Part)
		case req.Part.Kind == props.PartSerial:
			partReqs = append(partReqs, props.SerialPartitioning())
		}
		generic := props.HashPartitioning(keySet)
		dup := false
		for _, p := range partReqs {
			if p.Equal(generic) {
				dup = true
			}
		}
		if !dup {
			partReqs = append(partReqs, generic)
		}
	}
	var alts []Alt
	for _, partReq := range partReqs {
		// Stream aggregation: one alternative per candidate
		// clustering order.
		for _, ord := range sortCandidates(keySet, req.Order, cfg.MaxSortCandidates) {
			alts = append(alts, Alt{
				Op:        &relop.StreamAgg{Keys: op.Keys, Aggs: op.Aggs, Phase: op.Phase},
				ChildReqs: []props.Required{{Part: partReq, Order: ord}},
			})
		}
		// Hash aggregation: no order requirement.
		if !cfg.DisableHashAgg {
			alts = append(alts, Alt{
				Op:        &relop.HashAgg{Keys: op.Keys, Aggs: op.Aggs, Phase: op.Phase},
				ChildReqs: []props.Required{{Part: partReq}},
			})
		}
	}
	return alts
}

// sortCandidates enumerates orderings over keys that cluster the key
// set, preferring one aligned with the required output order.
func sortCandidates(keys props.ColSet, reqOrder props.Ordering, maxC int) []props.Ordering {
	if maxC <= 0 {
		maxC = 4
	}
	out := make([]props.Ordering, 0, maxC)
	add := func(o props.Ordering) {
		if len(out) >= maxC || o.Empty() {
			return
		}
		for _, have := range out {
			if have.Equal(o) {
				return
			}
		}
		out = append(out, o)
	}
	// Required-order-aligned candidate: extend the required order's
	// key prefix with the remaining keys.
	if !reqOrder.Empty() {
		if reqCols := reqOrder.Columns(); reqCols.SubsetOf(keys) {
			ext := make(props.Ordering, 0, keys.Len())
			ext = append(ext, reqOrder...)
			for _, k := range keys.Cols() {
				if !reqCols.Contains(k) {
					ext = append(ext, props.SortCol{Col: k})
				}
			}
			add(ext)
		}
	}
	for _, o := range props.OrderingsWithPrefixSet(keys, keys) {
		add(o)
	}
	return out
}

// implementJoin generates merge and hash joins over co-partitioned
// children (exact matching schemes on corresponding key columns, so
// equal keys meet on one machine), a serial variant, and optionally a
// broadcast-inner hash join.
func implementJoin(m *memo.Memo, e *memo.Expr, op *relop.Join, req props.Required, cfg Config) []Alt {
	var alts []Alt
	schemes := joinPartitionSchemes(op, cfg.MaxEnforceTargets)
	for _, s := range schemes {
		// Sort-merge join: both inputs sorted on corresponding key
		// rotations.
		for _, rot := range keyRotations(len(op.LeftKeys), cfg.MaxSortCandidates) {
			lOrd := orderFromKeys(op.LeftKeys, rot)
			rOrd := orderFromKeys(op.RightKeys, rot)
			alts = append(alts, Alt{
				Op: &relop.SortMergeJoin{LeftKeys: op.LeftKeys, RightKeys: op.RightKeys},
				ChildReqs: []props.Required{
					{Part: s.left, Order: lOrd},
					{Part: s.right, Order: rOrd},
				},
			})
		}
		alts = append(alts, Alt{
			Op: &relop.HashJoin{LeftKeys: op.LeftKeys, RightKeys: op.RightKeys},
			ChildReqs: []props.Required{
				{Part: s.left},
				{Part: s.right},
			},
		})
	}
	if cfg.EnableBroadcastJoin {
		// Broadcast the smaller side (by estimated bytes) to every
		// machine holding the other side.
		l := m.Group(e.Children[0]).Props.Rel
		r := m.Group(e.Children[1]).Props.Rel
		lReq := props.AnyRequired()
		rReq := props.Required{Part: props.BroadcastPartitioning()}
		if l.Bytes() < r.Bytes() {
			lReq = props.Required{Part: props.BroadcastPartitioning()}
			rReq = props.AnyRequired()
		}
		alts = append(alts, Alt{
			Op:        &relop.HashJoin{LeftKeys: op.LeftKeys, RightKeys: op.RightKeys},
			ChildReqs: []props.Required{lReq, rReq},
		})
	}
	return alts
}

// partScheme is a pair of exact co-partitionings for a join.
type partScheme struct {
	left, right props.Partitioning
}

// joinPartitionSchemes enumerates co-partitioning schemes: the full
// key set, each single key pair, and the serial-serial fallback.
// Exact schemes are required so both sides agree on the hash columns
// (hash on mismatched subsets would separate equal keys).
func joinPartitionSchemes(op *relop.Join, maxT int) []partScheme {
	if maxT <= 0 {
		maxT = 6
	}
	var out []partScheme
	out = append(out, partScheme{
		left:  props.ExactHashPartitioning(props.NewColSet(op.LeftKeys...)),
		right: props.ExactHashPartitioning(props.NewColSet(op.RightKeys...)),
	})
	if len(op.LeftKeys) > 1 {
		for i := range op.LeftKeys {
			if len(out) >= maxT {
				break
			}
			out = append(out, partScheme{
				left:  props.ExactHashPartitioning(props.NewColSet(op.LeftKeys[i])),
				right: props.ExactHashPartitioning(props.NewColSet(op.RightKeys[i])),
			})
		}
	}
	out = append(out, partScheme{
		left:  props.SerialPartitioning(),
		right: props.SerialPartitioning(),
	})
	return out
}

// keyRotations yields index rotations [0..n), capped.
func keyRotations(n, maxC int) [][]int {
	if maxC <= 0 || maxC > n {
		maxC = n
	}
	out := make([][]int, 0, maxC)
	for r := 0; r < maxC; r++ {
		rot := make([]int, n)
		for i := 0; i < n; i++ {
			rot[i] = (r + i) % n
		}
		out = append(out, rot)
	}
	return out
}

func orderFromKeys(keys []string, rot []int) props.Ordering {
	o := make(props.Ordering, len(rot))
	for i, k := range rot {
		o[i] = props.SortCol{Col: keys[k]}
	}
	return o
}
