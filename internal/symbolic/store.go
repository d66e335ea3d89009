package symbolic

import (
	"fmt"
	"slices"
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
// Both maps are short slices: terms is an unordered list of (location,
// term) pairs — few locations hold err at once — and cons lists only the
// constrained roots, sorted by RootID. A root without an entry is
// unconstrained; that is the one encoding of "unconstrained", so minting a
// root writes nothing and a fork copies only the roots its path constrained.
// Every walk over terms either sorts (Locs, Key) or folds commutatively
// (KeyHash), so its order never shows.
//
// The constraint sets inside cons are interned (intern.go): each value is an
// immutable canonical *Constraints, so cloning and hashing never copy or
// re-render a set. Mutation is functional — copy the set, refine it,
// re-intern, swap the pointer — which is exactly the delta a forked child
// re-checks: the one root the fork constrained.
type Store struct {
	terms []locTerm
	cons  []rootCons // constrained roots only, sorted by root
	rels  []diffEdge // difference constraints between roots (relations.go)
	next  RootID
	// shared marks the slices whose backing arrays may be referenced by
	// another Store after a Clone, one bit per slice (sharedTerms,
	// sharedCons, sharedRels); the first mutation of a slice copies it.
	// Most forked states never touch their store again — a control-flow
	// fork constrains only the root involved, and plenty of successors
	// terminate without learning anything new — and a fork that only
	// constrains a root copies cons but not terms.
	shared uint8
	// relsSat caches the Bellman-Ford verdict over the difference graph;
	// valid while relsSatCached. Any constraint mutation invalidates it, so
	// the solver re-runs only when the relations or bounds actually moved —
	// the incremental half of "re-check only the delta".
	relsSat       bool
	relsSatCached bool
}

// locTerm is one entry of the location→term map.
type locTerm struct {
	loc  isa.Loc
	term Term
}

// rootCons is one entry of the root→constraints map: a constrained root and
// its interned, immutable set.
type rootCons struct {
	root RootID
	set  *Constraints
}

// Bits of Store.shared.
const (
	sharedTerms uint8 = 1 << iota
	sharedCons
	sharedRels
	sharedAll = sharedTerms | sharedCons | sharedRels
)

// NewStore returns an empty constraint map.
func NewStore() *Store { return &Store{} }

// Clone returns a logically independent copy, used when forking execution.
// The copy is lazy (copy-on-write): both stores share the underlying slices
// until one of them mutates a slice, at which point the mutating side copies
// that slice first. A Store belongs to exactly one symbolic state and states
// of one search are explored by one goroutine, so the sharing needs no
// synchronization.
func (s *Store) Clone() *Store {
	s.shared = sharedAll
	c := *s
	return &c
}

// ownTerms makes terms private before a mutation, with room for one more.
func (s *Store) ownTerms() {
	if s.shared&sharedTerms != 0 {
		s.terms = append(make([]locTerm, 0, len(s.terms)+1), s.terms...)
		s.shared &^= sharedTerms
	}
}

// ownCons makes cons private before a mutation, with room for one more.
func (s *Store) ownCons() {
	if s.shared&sharedCons != 0 {
		s.cons = append(make([]rootCons, 0, len(s.cons)+1), s.cons...)
		s.shared &^= sharedCons
	}
}

// consIndex returns r's position in cons, or where its entry would go, and
// whether the entry is there. It is a plain loop because every fork that
// constrains a root runs it, and there a generic search's closure costs
// measurably.
func (s *Store) consIndex(r RootID) (int, bool) {
	lo, hi := 0, len(s.cons)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.cons[m].root < r {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.cons) && s.cons[lo].root == r
}

// root returns r's constraint set: its entry's, internedEmpty for a minted
// root without one, or nil for a root the store never minted.
func (s *Store) root(r RootID) *Constraints {
	if i, ok := s.consIndex(r); ok {
		return s.cons[i].set
	}
	if r >= 0 && r < s.next {
		return internedEmpty
	}
	return nil
}

// putRoot records the interned set c as r's constraints, where (i, found)
// is consIndex(r). An unconstrained set removes the entry rather than being
// stored.
func (s *Store) putRoot(i int, found bool, r RootID, c *Constraints) {
	s.relsSatCached = false // bounds feed the difference-graph solve
	switch {
	case c.Unconstrained():
		if found {
			s.ownCons()
			s.cons = slices.Delete(s.cons, i, i+1)
		}
	case found:
		s.ownCons()
		s.cons[i].set = c
	default:
		s.ownCons()
		s.cons = slices.Insert(s.cons, i, rootCons{r, c})
	}
}

// termIndex returns loc's position in terms, or -1.
func (s *Store) termIndex(loc isa.Loc) int {
	for i := range s.terms {
		if s.terms[i].loc == loc {
			return i
		}
	}
	return -1
}

// NewRoot introduces a fresh, unconstrained erroneous quantity.
func (s *Store) NewRoot() RootID {
	r := s.next
	s.next++
	return r
}

// RootsMinted returns how many roots the store has introduced so far: the
// number the next NewRoot will take.
func (s *Store) RootsMinted() RootID { return s.next }

// SetTerm records that loc holds err with symbolic value t.
func (s *Store) SetTerm(loc isa.Loc, t Term) {
	s.ownTerms()
	if i := s.termIndex(loc); i >= 0 {
		s.terms[i].term = t
		return
	}
	s.terms = append(s.terms, locTerm{loc, t})
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
	i := s.termIndex(loc)
	if i < 0 {
		return
	}
	// Truncating writes nothing, so a shared list is copied only when the
	// last term must move into the gap.
	last := len(s.terms) - 1
	if i != last {
		s.ownTerms()
		s.terms[i] = s.terms[last]
	}
	s.terms = s.terms[:last]
}

// HasTerms reports whether any location holds err.
func (s *Store) HasTerms() bool { return len(s.terms) > 0 }

// Term returns loc's symbolic term, if it holds err.
func (s *Store) Term(loc isa.Loc) (Term, bool) {
	if i := s.termIndex(loc); i >= 0 {
		return s.terms[i].term, true
	}
	return Term{}, false
}

// updateRoot applies the functional mutation protocol to one root's set:
// clone the interned value with room for room more disequalities, let f
// refine the mutable copy, re-intern, swap the pointer. Returns f's verdict
// (conventionally "still satisfiable").
func (s *Store) updateRoot(r RootID, room int, f func(*Constraints) bool) bool {
	i, found := s.consIndex(r)
	cur := internedEmpty
	if found {
		cur = s.cons[i].set
	}
	mut := cur.cloneWithRoom(room)
	sat := f(mut)
	s.putRoot(i, found, r, Intern(mut))
	return sat
}

// ConstrainRoot conjoins the atomic constraint "r cmp v" on a root. It
// returns false when the root's set became unsatisfiable (the caller should
// prune the state).
func (s *Store) ConstrainRoot(r RootID, cmp isa.Cmp, v int64) bool {
	if cmp == isa.CmpEq {
		if i, found := s.consIndex(r); !found || s.cons[i].set.Admits(v) {
			// A feasible equality pins the root: AddCmp would leave exactly
			// lo == hi == v, every disequality normalized away, so skip
			// copying them.
			pinned := Constraints{hasLo: true, lo: v, hasHi: true, hi: v}
			s.putRoot(i, found, r, internCopy(&pinned))
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
	c := s.root(r)
	if c == nil {
		return
	}
	root, exact := c.Exact()
	if !exact {
		return
	}
	// Compact the terms that stay symbolic. Truncating writes nothing, so a
	// shared list is copied only when a kept term must move down.
	kept := 0
	for i, lt := range s.terms {
		if lt.term.Root == r {
			if v, ok := lt.term.at(root); ok {
				set(lt.loc, v)
				continue
			}
		}
		if kept != i {
			s.ownTerms()
			s.terms[kept] = lt
		}
		kept++
	}
	s.terms = s.terms[:kept]
}

// AdmitsEq reports whether conjoining "t == v" would leave t's root
// satisfiable, without touching the store: the read-only twin of
// ConstrainTerm(CmpEq) on a clone. It is exact because an equality atom
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
	c := s.root(t.Root)
	if c == nil {
		return true
	}
	return c.Admits(rootVal)
}

// ExactValue reports whether the constraints pin t to a single concrete
// value, enabling the executor to concretize the location.
func (s *Store) ExactValue(t Term) (int64, bool) {
	c := s.root(t.Root)
	if c == nil {
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
	for _, e := range s.cons {
		if !e.set.Satisfiable() {
			return false
		}
	}
	return s.relsSatisfiable()
}

// RootConstraints returns the constraint set recorded for r: an
// unconstrained set for a minted root nothing constrained, and nil for a
// root the store never minted.
func (s *Store) RootConstraints(r RootID) *Constraints { return s.root(r) }

// Locs returns the locations currently holding err, registers first, both
// groups sorted.
func (s *Store) Locs() []isa.Loc {
	terms := s.sortedTerms()
	out := make([]isa.Loc, len(terms))
	for i, lt := range terms {
		out[i] = lt.loc
	}
	return out
}

// sortedTerms returns a copy of terms in Locs order.
func (s *Store) sortedTerms() []locTerm {
	out := slices.Clone(s.terms)
	sort.Slice(out, func(i, j int) bool { return locLess(out[i].loc, out[j].loc) })
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
	for _, lt := range s.sortedTerms() {
		fmt.Fprintf(&b, "%s=%s;", lt.loc, lt.term)
	}
	for _, e := range s.cons {
		fmt.Fprintf(&b, "e#%d:%s;", e.root, e.set.Key())
	}
	b.WriteString(s.RelsKey())
	return b.String()
}

// Describe renders the store for reports: which locations hold err and what
// is known about each erroneous quantity.
func (s *Store) Describe() string {
	var b strings.Builder
	for i, lt := range s.sortedTerms() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", lt.loc, lt.term)
	}
	for _, e := range s.cons {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "e#%d: %s", e.root, strings.ReplaceAll(e.set.String(), "x", fmt.Sprintf("e#%d", e.root)))
	}
	if b.Len() == 0 {
		return "no symbolic state"
	}
	return b.String()
}
