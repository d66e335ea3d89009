package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"symplfied/internal/isa"
)

// Relational constraints between two roots, in the integer difference-logic
// fragment: x - y <= c. Comparisons between two distinct erroneous
// quantities (err-vs-err forks) translate here when both sides are affine
// with unit coefficient; the solver then prunes paths whose accumulated
// relations form a negative cycle — e.g. assuming x < y on one branch and
// later x > y on the same path. This extends the paper's model, which leaves
// err-vs-err comparisons wholly unconstrained, in the direction of its
// future-work item on reducing false positives.
//
// Equalities contribute both directions; disequalities are not expressible
// in difference logic and stay unconstrained (sound: no pruning).

// diffEdge encodes xTo - xFrom <= weight.
type diffEdge struct {
	from, to RootID
	weight   int64
}

// AddRel conjoins "t1 cmp t2" as a difference constraint when both terms
// have unit coefficient. It returns (handled, satisfiable): handled=false
// means the relation is outside the fragment and nothing was recorded;
// satisfiable=false means the path became infeasible.
func (s *Store) AddRel(t1 Term, cmp isa.Cmp, t2 Term) (handled, satisfiable bool) {
	if t1.Coeff != 1 || t2.Coeff != 1 || t1.Root == t2.Root {
		return false, true
	}
	// (x + o1) cmp (y + o2)  <=>  x - y cmp (o2 - o1).
	d, ok := subOvf(t2.Off, t1.Off)
	if !ok {
		return false, true
	}
	x, y := t1.Root, t2.Root
	switch cmp {
	case isa.CmpLe: // x - y <= d
		s.addEdge(y, x, d)
	case isa.CmpLt: // x - y <= d-1
		if d == minInt64 {
			s.markAllUnsat(x, y)
			return true, false
		}
		s.addEdge(y, x, d-1)
	case isa.CmpGe: // y - x <= -d
		nd, ok := negOvf(d)
		if !ok {
			return false, true
		}
		s.addEdge(x, y, nd)
	case isa.CmpGt: // y - x <= -d-1
		nd, ok := negOvf(d)
		if !ok || nd == minInt64 {
			return false, true
		}
		s.addEdge(x, y, nd-1)
	case isa.CmpEq: // both directions
		nd, ok := negOvf(d)
		if !ok {
			return false, true
		}
		s.addEdge(y, x, d)
		s.addEdge(x, y, nd)
	default: // CmpNe: outside difference logic
		return false, true
	}
	return true, s.relsSatisfiable()
}

func negOvf(v int64) (int64, bool) {
	if v == minInt64 {
		return 0, false
	}
	return -v, true
}

func (s *Store) addEdge(from, to RootID, weight int64) {
	if s.shared&sharedRels != 0 {
		s.rels = append(make([]diffEdge, 0, len(s.rels)+1), s.rels...)
		s.shared &^= sharedRels
	}
	s.relsSatCached = false
	// Keep only the tightest edge per pair.
	for i, e := range s.rels {
		if e.from == from && e.to == to {
			if weight < e.weight {
				s.rels[i].weight = weight
			}
			return
		}
	}
	s.rels = append(s.rels, diffEdge{from: from, to: to, weight: weight})
}

// markAllUnsat poisons the involved roots (used for degenerate overflows).
func (s *Store) markAllUnsat(roots ...RootID) {
	for _, r := range roots {
		s.markRootUnsat(r)
	}
}

// relsSatisfiable answers "no negative cycle?" over the difference graph,
// reusing the cached verdict when neither the relations nor any root's
// bounds changed since the last solve — a forked child that learned nothing
// relational re-checks only its own delta, not the whole graph.
func (s *Store) relsSatisfiable() bool {
	if s.relsSatCached {
		return s.relsSat
	}
	sat := s.relsSolve()
	s.relsSat, s.relsSatCached = sat, true
	return sat
}

// relsSolve runs Bellman-Ford over the difference graph augmented with
// the per-root interval bounds (a virtual zero node): satisfiable iff no
// negative cycle. This is sound and complete for the conjunction of
// difference constraints and bounds (disequalities excluded, which only
// makes the check conservative).
func (s *Store) relsSolve() bool {
	if len(s.rels) == 0 {
		return true
	}
	// Nodes: involved roots plus the virtual zero node (-1).
	nodes := map[RootID]bool{}
	for _, e := range s.rels {
		nodes[e.from] = true
		nodes[e.to] = true
	}
	type edge struct {
		from, to RootID
		w        int64
	}
	const zero = RootID(-1)
	var edges []edge
	for _, e := range s.rels {
		edges = append(edges, edge{e.from, e.to, e.weight})
	}
	for r := range nodes {
		c := s.root(r)
		if c == nil {
			continue
		}
		if !c.Satisfiable() {
			return false
		}
		// x <= hi: edge zero -> x with weight hi.
		if c.hasHi {
			edges = append(edges, edge{zero, r, c.hi})
		}
		// x >= lo: edge x -> zero with weight -lo.
		if c.hasLo {
			nl, ok := negOvf(c.lo)
			if !ok {
				continue // extreme bound: skip (conservative)
			}
			edges = append(edges, edge{r, zero, nl})
		}
	}

	dist := map[RootID]int64{zero: 0}
	for r := range nodes {
		dist[r] = 0
	}
	n := len(dist)
	for i := 0; i < n; i++ {
		changed := false
		for _, e := range edges {
			du, okU := dist[e.from]
			if !okU {
				continue
			}
			if nd, ok := addOvf(du, e.w); ok {
				if dv, okV := dist[e.to]; okV && nd < dv {
					dist[e.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
		if i == n-1 && changed {
			return false // relaxation still progressing: negative cycle
		}
	}
	return true
}

// RelsKey returns a canonical encoding of the difference constraints for
// state hashing.
func (s *Store) RelsKey() string {
	if len(s.rels) == 0 {
		return ""
	}
	parts := make([]string, len(s.rels))
	for i, e := range s.rels {
		parts[i] = fmt.Sprintf("e#%d-e#%d<=%d", e.to, e.from, e.weight)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}
