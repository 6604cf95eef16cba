package props

import (
	"strconv"
	"strings"
)

// Required is the set of physical properties a parent demands from a
// plan: a distribution requirement and a per-machine sort requirement.
// This is the paper's ReqProp.
type Required struct {
	Part  Partitioning
	Order Ordering
}

// AnyRequired imposes nothing.
func AnyRequired() Required { return Required{Part: AnyPartitioning()} }

// RequireHash is shorthand for a range partitioning requirement
// [∅, cols] with no sort requirement.
func RequireHash(cols ColSet) Required {
	return Required{Part: HashPartitioning(cols)}
}

// RequireSerial demands a single-machine result.
func RequireSerial() Required { return Required{Part: SerialPartitioning()} }

// IsAny reports whether the requirement is vacuous.
func (r Required) IsAny() bool { return r.Part.IsAny() && r.Order.Empty() }

// Key returns a canonical string identifying the requirement; it keys
// the per-group winner ("best plan for this optimization context")
// cache inside the memo.
func (r Required) Key() string {
	var b strings.Builder
	r.writeKey(&b)
	return b.String()
}

func (r Required) writeKey(b *strings.Builder) {
	r.Part.writeKey(b)
	b.WriteByte('|')
	r.Order.writeKey(b)
}

// Equal reports structural equality.
func (r Required) Equal(s Required) bool {
	return r.Part.Equal(s.Part) && r.Order.Equal(s.Order)
}

// String renders the requirement for debugging and plan output.
func (r Required) String() string {
	if r.IsAny() {
		return "any"
	}
	var parts []string
	if !r.Part.IsAny() {
		parts = append(parts, r.Part.String())
	}
	if !r.Order.Empty() {
		parts = append(parts, "sort"+r.Order.String())
	}
	return strings.Join(parts, " ")
}

// Delivered is the set of physical properties a concrete plan
// actually provides. This is the paper's DlvdProp.
type Delivered struct {
	Part  Partitioning
	Order Ordering
}

// Satisfies reports whether the delivered properties meet the
// requirement (paper routine PropertySatisfied).
func (d Delivered) Satisfies(r Required) bool {
	return d.Part.Satisfies(r.Part) && d.Order.Satisfies(r.Order)
}

// String renders the delivered properties.
func (d Delivered) String() string {
	var parts []string
	parts = append(parts, d.Part.String())
	if !d.Order.Empty() {
		parts = append(parts, "sort"+d.Order.String())
	}
	return strings.Join(parts, " ")
}

// GroupID identifies a memo group. It is declared here (rather than in
// the memo package) so property pins can name shared groups without an
// import cycle; the memo package aliases it.
type GroupID int

// Pin is one shared memo group and the property set phase 2 enforces
// on it.
type Pin struct {
	Group GroupID
	Req   Required
}

// Pins lists the property sets phase 2 enforces on shared memo groups,
// sorted by group. It is the PropForSharedGrps field of the paper's
// ExtReqProp. Pins values are immutable; derive modified copies with
// With, Without and Restrict (which return the receiver itself when
// nothing changes). The sorted layout is what lets Key and Hash walk
// the pins in canonical order without sorting or allocating.
type Pins []Pin

// index returns the position of g's pin, or where it would be
// inserted.
func (p Pins) index(g GroupID) (int, bool) {
	for i, pin := range p {
		if pin.Group >= g {
			return i, pin.Group == g
		}
	}
	return len(p), false
}

// With returns a copy of p with group g pinned to req.
func (p Pins) With(g GroupID, req Required) Pins {
	i, found := p.index(g)
	out := make(Pins, 0, len(p)+1)
	out = append(out, p[:i]...)
	out = append(out, Pin{Group: g, Req: req})
	if found {
		i++
	}
	return append(out, p[i:]...)
}

// Without returns p with the pin for g removed (used when the
// propagation reaches g itself: below the shared group the pin no
// longer applies).
func (p Pins) Without(g GroupID) Pins {
	i, found := p.index(g)
	if !found {
		return p
	}
	out := make(Pins, 0, len(p)-1)
	out = append(out, p[:i]...)
	return append(out, p[i+1:]...)
}

// Restrict keeps only the pins whose group the keep predicate accepts.
// The optimizer restricts pins to the shared groups actually reachable
// below each group so winner contexts stay maximally shareable across
// re-optimization rounds.
func (p Pins) Restrict(keep func(GroupID) bool) Pins {
	for i, pin := range p {
		if keep(pin.Group) {
			continue
		}
		out := append(make(Pins, 0, len(p)-1), p[:i]...)
		for _, rest := range p[i+1:] {
			if keep(rest.Group) {
				out = append(out, rest)
			}
		}
		return out
	}
	return p
}

// Get returns the pin for g, if any.
func (p Pins) Get(g GroupID) (Required, bool) {
	if i, found := p.index(g); found {
		return p[i].Req, true
	}
	return Required{}, false
}

// Key returns a canonical string over the pins, ordered by group.
func (p Pins) Key() string {
	var b strings.Builder
	p.writeKey(&b)
	return b.String()
}

func (p Pins) writeKey(b *strings.Builder) {
	for _, pin := range p {
		b.WriteByte('@')
		b.WriteString(strconv.Itoa(int(pin.Group)))
		b.WriteByte('[')
		pin.Req.writeKey(b)
		b.WriteByte(']')
	}
}

// ExtRequired is the paper's ExtReqProp: a conventional requirement
// plus the properties to be enforced at shared groups on the way down.
type ExtRequired struct {
	Required
	ForShared Pins
}

// ExtAny is the vacuous extended requirement.
func ExtAny() ExtRequired { return ExtRequired{Required: AnyRequired()} }

// Ext wraps a plain requirement with no pins.
func Ext(r Required) ExtRequired { return ExtRequired{Required: r} }

// WithPins returns a copy of e carrying the given pins.
func (e ExtRequired) WithPins(p Pins) ExtRequired {
	e.ForShared = p
	return e
}

// Key returns the canonical winner-context key, combining the plain
// requirement with the pins.
func (e ExtRequired) Key() string {
	var b strings.Builder
	e.Required.writeKey(&b)
	if len(e.ForShared) > 0 {
		b.WriteByte('!')
		e.ForShared.writeKey(&b)
	}
	return b.String()
}

// Equal reports structural equality: the same requirement under the
// same pins.
func (e ExtRequired) Equal(f ExtRequired) bool {
	if !e.Required.Equal(f.Required) || len(e.ForShared) != len(f.ForShared) {
		return false
	}
	for i, pin := range e.ForShared {
		if pin.Group != f.ForShared[i].Group || !pin.Req.Equal(f.ForShared[i].Req) {
			return false
		}
	}
	return true
}

// Hash returns a structural hash of the extended requirement: FNV-1a
// over the partitioning, the ordering and the pins in group order.
// Equal requirements hash equally in every process and on every
// goroutine — the value derives from content alone, never from the
// order contexts were first seen in — so a winner table keyed by it
// behaves identically at any round-worker width. Callers resolve
// collisions with Equal.
func (e ExtRequired) Hash() uint64 {
	h := e.Required.hash(fnvOffset)
	for _, pin := range e.ForShared {
		h = pin.Req.hash(hashWord(h, uint64(pin.Group)))
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashWord(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// hashString folds s and a terminator into h, so ("ab","c") and
// ("a","bc") hash apart.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

func (o Ordering) hash(h uint64) uint64 {
	h = hashWord(h, uint64(len(o)))
	for _, c := range o {
		h = hashString(h, c.Col)
		if c.Desc {
			h = hashWord(h, 1)
		}
	}
	return h
}

func (r Required) hash(h uint64) uint64 {
	kind := uint64(r.Part.Kind) << 1
	if r.Part.Exact {
		kind |= 1
	}
	h = hashWord(h, kind)
	h = hashWord(h, uint64(len(r.Part.Cols.cols)))
	for _, c := range r.Part.Cols.cols {
		h = hashString(h, c)
	}
	return r.Order.hash(r.Part.SortCols.hash(h))
}

// String renders the extended requirement for debugging.
func (e ExtRequired) String() string {
	s := e.Required.String()
	if len(e.ForShared) > 0 {
		s += " pins" + e.ForShared.Key()
	}
	return s
}
