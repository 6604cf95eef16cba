package opt

import (
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/rules"
	"repro/internal/stats"
)

// The search compares alternatives as values — operator, chosen child
// winners, delivered properties, operator cost, tree cost — and builds
// plan.Nodes only for the alternative that wins its (group, context)
// task. Everything below enumerates in a fixed order and replaces the
// incumbent only on a strictly lower cost, so the first of equally
// cheap alternatives wins, at any worker width.

// input is one child of an alternative: the child group's winner and,
// above a pinned shared child whose delivery misses this consumer's
// needs, the compensating enforcers (nil otherwise).
type input struct {
	plan *plan.Node
	cost float64 // the winner's tree cost
	comp *stack
}

// top returns what the input presents to its consumer.
func (in input) top() (props.Delivered, float64) {
	if in.comp != nil {
		return in.comp.dlvd, in.comp.cost
	}
	return in.plan.Dlvd, in.cost
}

// build returns the input's plan, compensation included.
func (o *Optimizer) build(in input) *plan.Node {
	if in.comp != nil {
		return o.wrap(in.plan, *in.comp)
	}
	return in.plan
}

// alternative is one implementation of a group expression over chosen
// inputs, not yet a plan node.
type alternative struct {
	op     relop.Operator
	inputs []input
	dlvd   props.Delivered
	opCost float64
	// tree is opCost plus the inputs' tree costs, added in input order:
	// plan.TreeCost's order, so the two agree to the bit.
	tree float64
	fp   uint64
}

// logPhysOpt is Algorithm 5: logical exploration, physical
// implementation, recursive child optimization with pin propagation,
// and enforcer insertion. It returns the group's best plan under the
// context as a winner (Plan nil when infeasible).
func (o *Optimizer) logPhysOpt(g *memo.Group, ereq props.ExtRequired, phase int) *memo.Winner {
	// After exploreAll certified the memo (phase 2), exploration is a
	// no-op and must be skipped: round workers share the memo and the
	// explored map read-only.
	if !o.exploredAll && !o.explored[g.ID] {
		rules.Explore(o.m, g, o.opts.Rules, o.model.C.Machines)
		o.explored[g.ID] = true
	}
	var (
		best    alternative
		bestTop stack
		found   bool
		// One buffer, two halves: the inputs of the alternative being
		// priced and those of the incumbent. Wider operators (a Sequence
		// over many outputs) spill to the heap through append.
		buf      [8]input
		scratch  = buf[0:0:4]
		bestKeep = buf[4:4:8]
	)
	consider := func(alt alternative) {
		s, ok := o.cheapest(stack{dlvd: alt.dlvd, cost: alt.tree}, g.Props.Rel, g.Props.Schema, ereq.Required)
		if ok && (!found || s.cost < bestTop.cost) {
			best, bestTop, found = alt, s, true
			// alt.inputs is scratch the next alternative overwrites.
			best.inputs = append(bestKeep[:0], alt.inputs...)
		}
	}
	// Exploration above was the only writer of g.Exprs; optimizing the
	// children below explores their groups, never this one.
	for _, e := range g.Exprs {
		if !e.Op.Kind().IsLogical() {
			continue
		}
		for _, impl := range rules.Implement(o.m, g, e, ereq.Required, o.opts.Rules) {
			if alt, ok := o.costAlternative(g, e, impl, ereq, phase, scratch); ok {
				consider(alt)
			}
		}
	}
	// A session-cache hit competes like any other implementation: a
	// CacheScan leaf priced as a read of the materialized partitions,
	// enforced toward the requirement when its recorded properties
	// fall short.
	if cs, ok := o.cacheScanCandidate(g); ok {
		consider(cs)
	}
	if !found {
		return &memo.Winner{}
	}
	// The one place a task renders its context: surviving nodes carry
	// it for spool identity, lint and traces.
	ctxKey := o.context(g, ereq, phase).Key()
	children := make([]*plan.Node, len(best.inputs))
	for i, in := range best.inputs {
		children[i] = o.build(in)
	}
	node := &plan.Node{
		Op:       best.op,
		Children: children,
		Group:    g.ID,
		CtxKey:   ctxKey,
		Schema:   g.Props.Schema,
		Rel:      g.Props.Rel,
		Dlvd:     best.dlvd,
		OpCost:   best.opCost,
		FP:       best.fp,
	}
	return &memo.Winner{Plan: o.wrap(node, bestTop), Cost: bestTop.cost}
}

// costAlternative optimizes the children of one implementation and
// prices the operator over their winners. In phase 2, a child that is
// a pinned shared group is optimized under its pinned property set
// regardless of what the implementation wanted (Alg. 5 lines 10–11),
// with consumer-side compensation on top when the pinned delivery
// misses the implementation's needs. inputs is the caller's scratch.
func (o *Optimizer) costAlternative(g *memo.Group, e *memo.Expr, impl rules.Alt, ereq props.ExtRequired, phase int, inputs []input) (alternative, bool) {
	for i, cgid := range e.Children {
		cReq := props.AnyRequired()
		if i < len(impl.ChildReqs) {
			cReq = impl.ChildReqs[i]
		}
		if phase == 2 {
			if pin, pinned := ereq.ForShared.Get(cgid); pinned && o.m.Group(cgid).Shared {
				// EnforcePhysProp: the pinned property set replaces
				// the implementation's requirement; pins below the
				// shared group no longer include its own
				// (PropagPropForSharedGrps).
				w := o.optimizeGroup(cgid, props.Ext(pin).WithPins(ereq.ForShared.Without(cgid)), phase)
				if w.Plan == nil {
					return alternative{}, false
				}
				comp, ok := o.compensate(w, cReq)
				if !ok {
					return alternative{}, false
				}
				in := input{plan: w.Plan, cost: w.Cost}
				if comp.n > 0 {
					kept := comp
					in.comp = &kept
				}
				inputs = append(inputs, in)
				continue
			}
		}
		cExt := props.Ext(cReq)
		if phase == 2 {
			cExt = cExt.WithPins(ereq.ForShared)
		}
		w := o.optimizeGroup(cgid, cExt, phase)
		if w.Plan == nil {
			return alternative{}, false
		}
		inputs = append(inputs, input{plan: w.Plan, cost: w.Cost})
	}
	return o.price(g, impl.Op, inputs, o.ids[g.ID].FP), true
}

// price derives the delivered properties of op over the chosen inputs
// and prices it.
func (o *Optimizer) price(g *memo.Group, op relop.Operator, inputs []input, fp uint64) alternative {
	var (
		relBuf  [4]stats.Relation
		partBuf [4]props.Partitioning
		dlvdBuf [4]props.Delivered
	)
	rels, parts, dlvds := relBuf[:0], partBuf[:0], dlvdBuf[:0]
	for _, in := range inputs {
		dlvd, _ := in.top()
		rels = append(rels, in.plan.Rel)
		parts = append(parts, dlvd.Part)
		dlvds = append(dlvds, dlvd)
	}
	alt := alternative{
		op:     op,
		inputs: inputs,
		dlvd:   rules.DeriveDelivered(op, dlvds),
		opCost: o.model.OpCost(op, g.Props.Rel, rels, parts),
		fp:     fp,
	}
	alt.tree = alt.opCost
	for _, in := range inputs {
		_, cost := in.top()
		alt.tree += cost
	}
	return alt
}

// compensate returns the cheapest enforcer stack above a pinned shared
// child's winner that meets the consumer's own requirement (the "Sort
// (C,B)" of Fig. 8(b)) — the bare winner when it already does — or
// false when none exists.
func (o *Optimizer) compensate(w *memo.Winner, want props.Required) (stack, bool) {
	return o.cheapest(stack{dlvd: w.Plan.Dlvd, cost: w.Cost}, w.Plan.Rel, w.Plan.Schema, want)
}
