package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"symplfied/internal/isa"
)

// Store is the ConstraintMap of the paper (Section 5.2): it maps each
// register or memory location that currently holds err to the symbolic term
// describing its value, and each root variable to the constraints learned
// about it from comparisons, branches, and detectors along the current path.
//
// A Store belongs to exactly one symbolic state; forking a state clones it.
//
// The constraint sets inside cons are interned (intern.go): each value is an
// immutable canonical *Constraints, so cloning, snapshotting (Push/Pop), and
// hashing never copy or re-render a set. Mutation is functional — copy the
// set, refine it, re-intern, swap the pointer — which is exactly the delta a
// forked child re-checks: the one root the fork constrained.
type Store struct {
	terms map[isa.Loc]Term
	cons  map[RootID]*Constraints // values are interned, immutable
	rels  []diffEdge              // difference constraints between roots (relations.go)
	next  RootID
	// cow marks the maps (and the rels backing array) as possibly shared
	// with another Store after a Clone or Push; the first mutation copies
	// them (materialize). Most forked states never touch their constraint
	// map again — a control-flow fork constrains only the root involved,
	// and plenty of successors terminate without learning anything new — so
	// sharing until first write removes the dominant Clone allocation from
	// the search hot path.
	cow bool
	// relsSat caches the Bellman-Ford verdict over the difference graph;
	// valid while relsSatCached. Any constraint mutation invalidates it, so
	// the solver re-runs only when the relations or bounds actually moved —
	// the incremental half of "re-check only the delta".
	relsSat       bool
	relsSatCached bool
}

// NewStore returns an empty constraint map.
func NewStore() *Store {
	return &Store{
		terms: make(map[isa.Loc]Term),
		cons:  make(map[RootID]*Constraints),
	}
}

// Clone returns a logically independent copy, used when forking execution.
// The copy is lazy (copy-on-write): both stores share the underlying maps
// until one of them mutates, at which point the mutating side copies first.
// A Store belongs to exactly one symbolic state and states of one search are
// explored by one goroutine, so the sharing needs no synchronization.
func (s *Store) Clone() *Store {
	s.cow = true
	return &Store{
		terms:         s.terms,
		cons:          s.cons,
		rels:          s.rels,
		next:          s.next,
		cow:           true,
		relsSat:       s.relsSat,
		relsSatCached: s.relsSatCached,
	}
}

// materialize copies the shared map shells before the first mutation after a
// Clone or Push. The *Constraints values are interned and immutable, so only
// the shells are copied — never the sets themselves.
func (s *Store) materialize() {
	if !s.cow {
		return
	}
	terms := make(map[isa.Loc]Term, len(s.terms)+1)
	for l, t := range s.terms {
		terms[l] = t
	}
	cons := make(map[RootID]*Constraints, len(s.cons)+1)
	for r, c := range s.cons {
		cons[r] = c
	}
	var rels []diffEdge
	if len(s.rels) > 0 {
		rels = make([]diffEdge, len(s.rels))
		copy(rels, s.rels)
	}
	s.terms, s.cons, s.rels = terms, cons, rels
	s.cow = false
}

// Scope is a savepoint of the store's entire constraint state, captured by
// Push and restored by Pop. Because the maps are copy-on-write shells over
// immutable interned values, a scope is O(1) to take and to restore: Push
// freezes the current shells, the next mutation copies them, and Pop swaps
// the frozen shells back. A scope answers "would this conjunction be
// feasible?" for any constraint without cloning the whole state; the fork
// enumeration's equality probes use the cheaper read-only AdmitsEq.
type Scope struct {
	terms         map[isa.Loc]Term
	cons          map[RootID]*Constraints
	rels          []diffEdge
	next          RootID
	relsSat       bool
	relsSatCached bool
}

// Push opens a constraint scope: a savepoint Pop rewinds to. Scopes nest;
// Pop in reverse order of Push.
func (s *Store) Push() Scope {
	s.cow = true
	return Scope{
		terms:         s.terms,
		cons:          s.cons,
		rels:          s.rels,
		next:          s.next,
		relsSat:       s.relsSat,
		relsSatCached: s.relsSatCached,
	}
}

// Pop rewinds the store to the savepoint: every term, constraint, relation,
// and root minted since the matching Push is discarded.
func (s *Store) Pop(sc Scope) {
	s.terms, s.cons, s.rels, s.next = sc.terms, sc.cons, sc.rels, sc.next
	s.relsSat, s.relsSatCached = sc.relsSat, sc.relsSatCached
	// The restored shells may still be shared with clones taken between
	// Push and Pop; stay copy-on-write.
	s.cow = true
}

// NewRoot introduces a fresh, unconstrained erroneous quantity.
func (s *Store) NewRoot() RootID {
	s.materialize()
	r := s.next
	s.next++
	s.cons[r] = internedEmpty
	return r
}

// RootsMinted returns how many roots the store has introduced so far: the
// number the next NewRoot will take.
func (s *Store) RootsMinted() RootID { return s.next }

// SetTerm records that loc holds err with symbolic value t.
func (s *Store) SetTerm(loc isa.Loc, t Term) {
	s.materialize()
	s.terms[loc] = t
}

// Inject marks loc as holding a freshly injected err and returns its root.
func (s *Store) Inject(loc isa.Loc) RootID {
	r := s.NewRoot()
	s.SetTerm(loc, FreshTerm(r))
	return r
}

// Clear removes loc's term: the location was overwritten with a concrete
// value, so any constraint bookkeeping for it no longer applies. Root
// constraints are retained: they describe the erroneous quantity itself,
// which other locations may still reference.
func (s *Store) Clear(loc isa.Loc) {
	if _, ok := s.terms[loc]; !ok {
		return
	}
	s.materialize()
	delete(s.terms, loc)
}

// HasTerms reports whether any location holds err.
func (s *Store) HasTerms() bool { return len(s.terms) > 0 }

// Term returns loc's symbolic term, if it holds err.
func (s *Store) Term(loc isa.Loc) (Term, bool) {
	t, ok := s.terms[loc]
	return t, ok
}

// TermOrFresh returns loc's term, minting a fresh root if the location holds
// err but no term was recorded (e.g. err stored through an unknown pointer).
func (s *Store) TermOrFresh(loc isa.Loc) Term {
	if t, ok := s.terms[loc]; ok {
		return t
	}
	t := FreshTerm(s.NewRoot()) // NewRoot materialized
	s.terms[loc] = t
	return t
}

// updateRoot applies the functional mutation protocol to one root's set:
// clone the interned value with room for room more disequalities, let f
// refine the mutable copy, re-intern, swap the pointer. Returns f's verdict
// (conventionally "still satisfiable").
func (s *Store) updateRoot(r RootID, room int, f func(*Constraints) bool) bool {
	s.materialize()
	cur, ok := s.cons[r]
	if !ok {
		cur = internedEmpty
	}
	mut := cur.cloneWithRoom(room)
	sat := f(mut)
	s.cons[r] = Intern(mut)
	s.relsSatCached = false // bounds feed the difference-graph solve
	return sat
}

// ConstrainRoot conjoins the atomic constraint "r cmp v" on a root. It
// returns false when the root's set became unsatisfiable (the caller should
// prune the state).
func (s *Store) ConstrainRoot(r RootID, cmp isa.Cmp, v int64) bool {
	if cmp == isa.CmpEq {
		if cur, ok := s.cons[r]; !ok || cur.Admits(v) {
			// A feasible equality pins the root: AddCmp would leave exactly
			// lo == hi == v, every disequality normalized away, so skip
			// copying them.
			pinned := Constraints{hasLo: true, lo: v, hasHi: true, hi: v}
			s.materialize()
			s.cons[r] = internCopy(&pinned)
			s.relsSatCached = false
			return true
		}
	}
	return s.updateRoot(r, 0, func(c *Constraints) bool { return c.AddCmp(cmp, v) })
}

// markRootUnsat poisons one root's constraint set.
func (s *Store) markRootUnsat(r RootID) {
	s.updateRoot(r, 0, func(c *Constraints) bool { c.MarkUnsat(); return false })
}

// ConstrainTerm conjoins "t cmp rhs" by inverting the affine map onto t's
// root. It returns false when the path becomes infeasible (caller prunes).
func (s *Store) ConstrainTerm(t Term, cmp isa.Cmp, rhs int64) bool {
	rootCmp, rootVal, tautology, ok := t.InvertCmp(cmp, rhs)
	if !ok {
		s.markRootUnsat(t.Root)
		return false
	}
	if tautology {
		return true
	}
	return s.ConstrainRoot(t.Root, rootCmp, rootVal)
}

// ConstrainTermNotIn conjoins "t =/= v-sub" for every v in vals (v-sub
// wraps like int64 subtraction), in one functional update of t's root: one
// clone, one normalize, one Intern. It is the batched twin of calling
// ConstrainTerm(t, CmpNe, v-sub) for each v in order and stopping at the
// first false, with the same verdict and, when satisfiable, the same
// interned set: disequalities only shrink a set, so a prefix is infeasible
// only if the whole batch is, and normalize reaches the same unique fixpoint
// whether it runs after every atom or once after all of them. The loop's
// intermediate sets are never built, so they never enter the intern table.
func (s *Store) ConstrainTermNotIn(t Term, vals []int64, sub int64) bool {
	first := -1
	for i, v := range vals {
		if _, _, tautology, ok := t.InvertCmp(isa.CmpNe, v-sub); !ok || !tautology {
			first = i
			break
		}
	}
	if first < 0 {
		return true // every atom is a tautology: the loop touches nothing
	}
	return s.updateRoot(t.Root, len(vals)-first, func(c *Constraints) bool {
		if c.unsat {
			// AddCmp rejects an unsatisfiable set, and markRootUnsat keeps it.
			return false
		}
		for _, v := range vals[first:] {
			_, rootVal, tautology, ok := t.InvertCmp(isa.CmpNe, v-sub)
			if !ok {
				c.MarkUnsat()
				return false
			}
			if !tautology {
				c.addNe(rootVal)
			}
		}
		c.normalize()
		return c.Satisfiable()
	})
}

// ConcretizeRoot rewrites every location whose term is over root r as
// concrete once r's constraints pin it to a single value (the paper's "the
// location being compared can be updated with the value it is being compared
// to", generalized through the affine map). For each such location it calls
// set with the location and its value, then clears the location's term. A
// location whose value overflows int64 keeps its term. Only a constraint on r
// can make r exact, so calling this for the root just constrained keeps the
// store free of terms over exact roots.
func (s *Store) ConcretizeRoot(r RootID, set func(loc isa.Loc, v int64)) {
	c, ok := s.cons[r]
	if !ok {
		return
	}
	root, exact := c.Exact()
	if !exact {
		return
	}
	s.materialize()
	for loc, t := range s.terms {
		if t.Root != r {
			continue
		}
		if v, ok := t.at(root); ok {
			set(loc, v)
			delete(s.terms, loc)
		}
	}
}

// AdmitsEq reports whether conjoining "t == v" would leave t's root
// satisfiable, without touching the store: the read-only twin of a
// Push/ConstrainTerm(CmpEq)/Pop probe. It is exact because an equality atom
// on a root is satisfiable iff the root's set admits the value, and
// ConstrainTerm never consults the difference relations.
func (s *Store) AdmitsEq(t Term, v int64) bool {
	_, rootVal, tautology, ok := t.InvertCmp(isa.CmpEq, v)
	if !ok {
		return false
	}
	if tautology {
		return true
	}
	c, found := s.cons[t.Root]
	if !found {
		return true
	}
	return c.Admits(rootVal)
}

// ExactValue reports whether the constraints pin t to a single concrete
// value, enabling the executor to concretize the location.
func (s *Store) ExactValue(t Term) (int64, bool) {
	c, ok := s.cons[t.Root]
	if !ok {
		return 0, false
	}
	root, ok := c.Exact()
	if !ok {
		return 0, false
	}
	return t.at(root)
}

// Satisfiable reports whether every root's constraint set is satisfiable.
// Terms are affine in a single root each, so per-root satisfiability implies
// global satisfiability.
func (s *Store) Satisfiable() bool {
	for _, c := range s.cons {
		if !c.Satisfiable() {
			return false
		}
	}
	return s.relsSatisfiable()
}

// Roots returns the roots in increasing order.
func (s *Store) Roots() []RootID {
	out := make([]RootID, 0, len(s.cons))
	for r := range s.cons {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RootConstraints returns the constraint set recorded for r, or nil.
func (s *Store) RootConstraints(r RootID) *Constraints { return s.cons[r] }

// Locs returns the locations currently holding err, registers first, both
// groups sorted.
func (s *Store) Locs() []isa.Loc {
	out := make([]isa.Loc, 0, len(s.terms))
	for l := range s.terms {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return locLess(out[i], out[j]) })
	return out
}

func locLess(a, b isa.Loc) bool {
	if a.IsMem != b.IsMem {
		return !a.IsMem
	}
	if a.IsMem {
		return a.Addr < b.Addr
	}
	return a.Reg < b.Reg
}

// Key returns a canonical encoding of the store for state hashing.
func (s *Store) Key() string {
	var b strings.Builder
	for _, l := range s.Locs() {
		t := s.terms[l]
		fmt.Fprintf(&b, "%s=%s;", l, t)
	}
	for _, r := range s.Roots() {
		c := s.cons[r]
		if c.Unconstrained() {
			continue
		}
		fmt.Fprintf(&b, "e#%d:%s;", r, c.Key())
	}
	b.WriteString(s.RelsKey())
	return b.String()
}

// Describe renders the store for reports: which locations hold err and what
// is known about each erroneous quantity.
func (s *Store) Describe() string {
	locs := s.Locs()
	if len(locs) == 0 && len(s.cons) == 0 {
		return "no symbolic state"
	}
	var b strings.Builder
	for i, l := range locs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", l, s.terms[l])
	}
	for _, r := range s.Roots() {
		c := s.cons[r]
		if c.Unconstrained() {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "e#%d: %s", r, strings.ReplaceAll(c.String(), "x", fmt.Sprintf("e#%d", r)))
	}
	if b.Len() == 0 {
		return "no symbolic state"
	}
	return b.String()
}
