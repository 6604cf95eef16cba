package opt

import (
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/rules"
	"repro/internal/stats"
)

// enforcer is one Sort or Repartition held as a value while enforcer
// variants compete; the operator is allocated only for a variant that
// wins (see wrap). A nil target is Sort{Order: order}; otherwise the
// enforcer is Repartition{To: *to, MergeOrder: order}.
type enforcer struct {
	to    *props.Partitioning
	order props.Ordering
}

func (e enforcer) op() relop.Operator {
	if e.to == nil {
		return &relop.Sort{Order: e.order}
	}
	return &relop.Repartition{To: *e.to, MergeOrder: e.order}
}

// stack is a plan with zero to two enforcers above it, reduced to what
// the search compares: the properties delivered at the top and the
// tree cost of the whole.
type stack struct {
	enf  [2]enforcer
	n    int
	dlvd props.Delivered
	// cost is the base plan's tree cost plus each enforcer's operator
	// cost, added bottom-up — the order plan.TreeCost sums a chain in,
	// so the two agree to the bit.
	cost float64
}

// push puts e on top of s, deriving its delivered properties and
// pricing it exactly as wrap will if the stack is built.
func (o *Optimizer) push(s *stack, e enforcer, rel stats.Relation) {
	var opCost float64
	if e.to == nil {
		op := relop.Sort{Order: e.order}
		s.dlvd, opCost = o.priceEnforcer(&op, s.dlvd, rel)
	} else {
		op := relop.Repartition{To: *e.to, MergeOrder: e.order}
		s.dlvd, opCost = o.priceEnforcer(&op, s.dlvd, rel)
	}
	s.enf[s.n] = e
	s.n++
	s.cost = opCost + s.cost
}

// priceEnforcer derives what enforcer op delivers above a plan
// delivering below, and prices it: same group, same statistics.
func (o *Optimizer) priceEnforcer(op relop.Operator, below props.Delivered, rel stats.Relation) (props.Delivered, float64) {
	return rules.DeriveDelivered(op, []props.Delivered{below}),
		o.model.OpCost(op, rel, []stats.Relation{rel}, []props.Partitioning{below.Part})
}

// enforce appends to dst the stacks satisfying (or attempting to
// satisfy) req from a base: the base itself, then enforcer-topped
// variants — Sort, plain Repartition (+ Sort), order-preserving merge
// Repartition, and Sort-below-merge-Repartition — always in that
// order, because cheapest keeps the first of equally cheap stacks.
// Unsatisfying stacks are harmless; cheapest filters them.
func (o *Optimizer) enforce(dst []stack, base stack, rel stats.Relation, schema relop.Schema, req props.Required) []stack {
	dst = append(dst, base)
	needPart := !base.dlvd.Part.Satisfies(req.Part)
	needOrd := !base.dlvd.Order.Satisfies(req.Order)
	if !needPart && !needOrd {
		return dst
	}
	// Enforcers can only operate on columns the plan actually
	// produces; a requirement over foreign columns is unenforceable
	// here (cheapest rejects the bare base).
	for _, sc := range req.Order {
		if !schema.Has(sc.Col) {
			return dst
		}
	}
	sorted := enforcer{order: req.Order}
	if !needPart {
		if !req.Order.Empty() {
			dst, _ = o.over(dst, base, sorted, rel)
		}
		return dst
	}
	targets := rules.EnforcerTargets(req.Part, o.opts.Rules)
	for i := range targets {
		target := &targets[i]
		if (target.Kind == props.PartHash || target.Kind == props.PartRange) &&
			!producesAll(schema, target.Cols) {
			continue
		}
		var top *stack
		// (a) plain exchange, then sort if an order is required.
		dst, top = o.over(dst, base, enforcer{to: target}, rel)
		if !req.Order.Empty() && !top.dlvd.Order.Satisfies(req.Order) {
			o.push(top, sorted, rel)
		}
		// (b) order-preserving merge exchange when the base is
		// already sorted.
		if !base.dlvd.Order.Empty() {
			dst, top = o.over(dst, base, enforcer{to: target, order: base.dlvd.Order}, rel)
			if !req.Order.Empty() && !top.dlvd.Order.Satisfies(req.Order) {
				o.push(top, sorted, rel)
			}
		}
		// (c) sort below the exchange, preserve through a merge
		// receive (sorting the smaller pre-exchange partitions can
		// be cheaper than a post-exchange sort).
		if !req.Order.Empty() && !base.dlvd.Order.Satisfies(req.Order) {
			dst, top = o.over(dst, base, sorted, rel)
			o.push(top, enforcer{to: target, order: top.dlvd.Order}, rel)
		}
	}
	return dst
}

// over appends base topped with e to dst and returns the new stack,
// valid for further pushes until dst is appended to again.
func (o *Optimizer) over(dst []stack, base stack, e enforcer, rel stats.Relation) ([]stack, *stack) {
	dst = append(dst, base)
	top := &dst[len(dst)-1]
	o.push(top, e, rel)
	return dst, top
}

// cheapest returns the cheapest stack over base that satisfies req —
// the first one enforce lists when several tie — or false when none
// does.
func (o *Optimizer) cheapest(base stack, rel stats.Relation, schema relop.Schema, req props.Required) (stack, bool) {
	if base.dlvd.Satisfies(req) {
		// Nothing to enforce: the base is the only stack listed.
		return base, true
	}
	// One base plus three variants per target (rules.Config caps targets
	// at six by default) fits; a longer list spills to the heap.
	var buf [20]stack
	var best *stack
	list := o.enforce(buf[:0], base, rel, schema, req)
	for i := range list {
		if s := &list[i]; s.dlvd.Satisfies(req) && (best == nil || s.cost < best.cost) {
			best = s
		}
	}
	if best == nil {
		return stack{}, false
	}
	return *best, true
}

func producesAll(schema relop.Schema, cols props.ColSet) bool {
	for _, c := range cols.Cols() {
		if !schema.Has(c) {
			return false
		}
	}
	return true
}

// wrap builds the enforcer nodes of s above base, the plan s was
// priced over: same group, same statistics, derived properties, priced
// by the cost model.
func (o *Optimizer) wrap(base *plan.Node, s stack) *plan.Node {
	for _, e := range s.enf[:s.n] {
		op := e.op()
		dlvd, opCost := o.priceEnforcer(op, base.Dlvd, base.Rel)
		base = &plan.Node{
			Op:       op,
			Children: []*plan.Node{base},
			Group:    base.Group,
			CtxKey:   base.CtxKey,
			Schema:   base.Schema,
			Rel:      base.Rel,
			Dlvd:     dlvd,
			OpCost:   opCost,
			FP:       base.FP,
		}
	}
	return base
}
