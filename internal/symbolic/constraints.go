// Package symbolic implements SymPLFIED's symbolic value domain: the single
// abstract error symbol err, the per-location constraint map, and the custom
// constraint solver the paper uses to prune infeasible forks (Section 5.2,
// "Constraint Tracking and Solving Sub-Model").
//
// Each independently erroneous quantity is a root variable. A location that
// currently holds err is mapped to an affine term coeff*root + off, so that
// constraints learned about a propagated copy (for example through "mult by a
// concrete value") can be translated back to the originating root. This
// refines the paper's model — which deliberately over-approximates by
// forgetting inter-location relations — in the direction the paper's own
// future work item (3) calls for ("augmenting the design of the constraint
// solver to reduce false-positives"). Setting Options.AffineTracking to false
// in the executor restores the paper's coarser behaviour for ablation.
package symbolic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"symplfied/internal/isa"
)

// Constraints is a satisfiable-or-not conjunction of atomic constraints on a
// single integer-valued root variable: an optional inclusive lower bound, an
// optional inclusive upper bound, and a finite disequality set. Equalities
// are represented as lo == hi. The zero value means "unconstrained".
//
// A Constraints is in one of two lifecycle phases. Freshly built sets (from
// NewConstraints or Clone) are mutable scratch values: AddCmp and MarkUnsat
// refine them in place. Once a set is handed to Intern it is frozen forever
// — the mutators panic — and its canonical pointer may be shared freely;
// stores only ever hold interned sets (see intern.go for the invariants).
type Constraints struct {
	unsat bool
	hasLo bool
	lo    int64
	hasHi bool
	hi    int64
	ne    map[int64]struct{}

	// hash caches the canonical content hash (hashInto) and interned marks
	// the set as frozen in the global intern table. Both are set only by
	// Intern; Clone resets them, yielding a mutable copy.
	hash     uint64
	interned bool
}

// NewConstraints returns an unconstrained constraint set.
func NewConstraints() *Constraints { return &Constraints{} }

// Clone returns a mutable deep copy. Cloning an interned set is how stores
// mutate constraints: copy, refine, re-intern (Store.ConstrainRoot).
func (c *Constraints) Clone() *Constraints { return c.cloneWithRoom(0) }

// cloneWithRoom is Clone with room for extra more disequalities.
func (c *Constraints) cloneWithRoom(extra int) *Constraints {
	out := &Constraints{
		unsat: c.unsat,
		hasLo: c.hasLo, lo: c.lo,
		hasHi: c.hasHi, hi: c.hi,
	}
	if len(c.ne)+extra > 0 {
		out.ne = make(map[int64]struct{}, len(c.ne)+extra)
		for v := range c.ne {
			out.ne[v] = struct{}{}
		}
	}
	return out
}

// MarkUnsat forces the constraint set to be unsatisfiable. Panics on an
// interned set.
func (c *Constraints) MarkUnsat() {
	c.mutable()
	c.unsat = true
}

// mutable guards the mutating methods: interned sets are frozen and shared,
// so writing through one would corrupt every store holding the pointer.
func (c *Constraints) mutable() {
	if c.interned {
		panic("symbolic: mutation of an interned Constraints")
	}
}

// AddCmp conjoins the atomic constraint "root cmp v". It returns false if the
// set became unsatisfiable (the caller should prune the state: a false
// positive per Section 3.2). Panics on an interned set.
func (c *Constraints) AddCmp(cmp isa.Cmp, v int64) bool {
	c.mutable()
	if c.unsat {
		return false
	}
	switch cmp {
	case isa.CmpEq:
		c.addLo(v)
		c.addHi(v)
	case isa.CmpNe:
		c.addNe(v)
	case isa.CmpGt:
		if v == maxInt64 {
			c.unsat = true
		} else {
			c.addLo(v + 1)
		}
	case isa.CmpGe:
		c.addLo(v)
	case isa.CmpLt:
		if v == minInt64 {
			c.unsat = true
		} else {
			c.addHi(v - 1)
		}
	case isa.CmpLe:
		c.addHi(v)
	default:
		// Unknown comparison: keep the set unchanged (sound: no pruning).
	}
	c.normalize()
	return c.Satisfiable()
}

const (
	maxInt64 = int64(^uint64(0) >> 1)
	minInt64 = -maxInt64 - 1
)

func (c *Constraints) addLo(v int64) {
	if !c.hasLo || v > c.lo {
		c.hasLo, c.lo = true, v
	}
}

func (c *Constraints) addHi(v int64) {
	if !c.hasHi || v < c.hi {
		c.hasHi, c.hi = true, v
	}
}

func (c *Constraints) addNe(v int64) {
	if c.ne == nil {
		c.ne = make(map[int64]struct{}, 4)
	}
	c.ne[v] = struct{}{}
}

// normalize eliminates redundancies: disequalities outside the bounds are
// dropped, disequalities at the bounds tighten the bounds, and an empty
// interval marks the set unsatisfiable. This is the solver's "eliminates
// redundancies in the constraint-set" duty from Section 5.2.
func (c *Constraints) normalize() {
	if c.unsat {
		return
	}
	for changed := true; changed; {
		changed = false
		if c.hasLo && c.hasHi && c.lo > c.hi {
			c.unsat = true
			return
		}
		for v := range c.ne {
			switch {
			case c.hasLo && v < c.lo, c.hasHi && v > c.hi:
				delete(c.ne, v)
				changed = true
			case c.hasLo && v == c.lo:
				if c.lo == maxInt64 {
					c.unsat = true
					return
				}
				c.lo++
				delete(c.ne, v)
				changed = true
			case c.hasHi && v == c.hi:
				if c.hi == minInt64 {
					c.unsat = true
					return
				}
				c.hi--
				delete(c.ne, v)
				changed = true
			}
		}
	}
}

// Satisfiable reports whether some integer satisfies the conjunction.
func (c *Constraints) Satisfiable() bool {
	if c.unsat {
		return false
	}
	if c.hasLo && c.hasHi {
		if c.lo > c.hi {
			return false
		}
		// After normalization the interval end-points are not excluded, so a
		// non-empty interval always contains a witness.
	}
	return true
}

// Exact returns the single satisfying value if the constraints pin the root
// to exactly one integer.
func (c *Constraints) Exact() (int64, bool) {
	if c.Satisfiable() && c.hasLo && c.hasHi && c.lo == c.hi {
		return c.lo, true
	}
	return 0, false
}

// Admits reports whether the concrete value v satisfies the conjunction. Used
// to validate findings against concrete re-injection (Section 6.2's
// SimpleScalar cross-validation).
func (c *Constraints) Admits(v int64) bool {
	if c.unsat {
		return false
	}
	if c.hasLo && v < c.lo {
		return false
	}
	if c.hasHi && v > c.hi {
		return false
	}
	_, excluded := c.ne[v]
	return !excluded
}

// Witness returns some satisfying value. ok is false when unsatisfiable.
func (c *Constraints) Witness() (int64, bool) {
	if !c.Satisfiable() {
		return 0, false
	}
	switch {
	case c.hasLo:
		return c.lo, true
	case c.hasHi:
		return c.hi, true
	}
	// Unbounded: pick a value outside the finite disequality set.
	for v := int64(0); ; v++ {
		if _, excluded := c.ne[v]; !excluded {
			return v, true
		}
	}
}

// Unconstrained reports whether no atomic constraint has been recorded.
func (c *Constraints) Unconstrained() bool {
	return !c.unsat && !c.hasLo && !c.hasHi && len(c.ne) == 0
}

// Key returns a canonical encoding for state hashing.
func (c *Constraints) Key() string {
	if c.unsat {
		return "⊥"
	}
	var b strings.Builder
	if c.hasLo {
		b.WriteString("L")
		b.WriteString(strconv.FormatInt(c.lo, 10))
	}
	if c.hasHi {
		b.WriteString("H")
		b.WriteString(strconv.FormatInt(c.hi, 10))
	}
	if len(c.ne) > 0 {
		vs := make([]int64, 0, len(c.ne))
		for v := range c.ne {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		b.WriteString("N")
		for _, v := range vs {
			b.WriteString(strconv.FormatInt(v, 10))
			b.WriteString(",")
		}
	}
	return b.String()
}

// String renders the constraints readably with x standing for the root,
// e.g. "1 < x, x <= 10, x =/= 3".
func (c *Constraints) String() string {
	if c.unsat {
		return "unsatisfiable"
	}
	if v, ok := c.Exact(); ok {
		return "x == " + strconv.FormatInt(v, 10)
	}
	parts := make([]string, 0, 3+len(c.ne))
	if c.hasLo {
		parts = append(parts, fmt.Sprintf("x >= %d", c.lo))
	}
	if c.hasHi {
		parts = append(parts, fmt.Sprintf("x <= %d", c.hi))
	}
	if len(c.ne) > 0 {
		vs := make([]int64, 0, len(c.ne))
		for v := range c.ne {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for _, v := range vs {
			parts = append(parts, fmt.Sprintf("x =/= %d", v))
		}
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ", ")
}
