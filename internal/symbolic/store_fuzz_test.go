package symbolic

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"symplfied/internal/isa"
)

// refStore is the map-based reference FuzzStoreOps checks a Store against:
// a root→set map written in place, with no sharing and no ordering, and the
// difference edges keyed by (from, to) with the tightest weight.
type refStore struct {
	next  RootID
	cons  map[RootID]*Constraints // mutable sets; unconstrained counts as absent
	edges map[[2]RootID]int64
}

func newRefStore() *refStore {
	return &refStore{cons: map[RootID]*Constraints{}, edges: map[[2]RootID]int64{}}
}

func (m *refStore) clone() *refStore {
	c := &refStore{next: m.next, cons: map[RootID]*Constraints{}, edges: map[[2]RootID]int64{}}
	for r, set := range m.cons {
		c.cons[r] = set.Clone()
	}
	for k, w := range m.edges {
		c.edges[k] = w
	}
	return c
}

func (m *refStore) set(r RootID) *Constraints {
	if m.cons[r] == nil {
		m.cons[r] = NewConstraints()
	}
	return m.cons[r]
}

// constrained returns the constrained roots in increasing order.
func (m *refStore) constrained() []RootID {
	var out []RootID
	for r, set := range m.cons {
		if !set.Unconstrained() {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *refStore) addEdge(from, to RootID, w int64) {
	if cur, ok := m.edges[[2]RootID{from, to}]; !ok || w < cur {
		m.edges[[2]RootID{from, to}] = w
	}
}

// relsKey renders the edges the way Store.RelsKey does.
func (m *refStore) relsKey() string {
	var parts []string
	for k, w := range m.edges {
		parts = append(parts, fmt.Sprintf("e#%d-e#%d<=%d", k[1], k[0], w))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func (m *refStore) key() string {
	var b strings.Builder
	for _, r := range m.constrained() {
		fmt.Fprintf(&b, "e#%d:%s;", r, m.cons[r].Key())
	}
	b.WriteString(m.relsKey())
	return b.String()
}

func (m *refStore) describe() string {
	var parts []string
	for _, r := range m.constrained() {
		name := fmt.Sprintf("e#%d", r)
		parts = append(parts, name+": "+strings.ReplaceAll(m.cons[r].String(), "x", name))
	}
	if len(parts) == 0 {
		return "no symbolic state"
	}
	return strings.Join(parts, "; ")
}

func (m *refStore) keyHash() uint64 {
	h := NewHash64()
	h.Word(0) // no terms
	h.Word(0)
	var cons uint64
	roots := m.constrained()
	for _, r := range roots {
		cons += entryHash(func(e *Hash64) {
			e.Int(int64(r))
			e.Word(m.cons[r].contentHash())
		})
	}
	h.Word(uint64(len(roots)))
	h.Word(cons)
	var rels uint64
	for k, w := range m.edges {
		rels += entryHash(func(e *Hash64) {
			e.Int(int64(k[0]))
			e.Int(int64(k[1]))
			e.Int(w)
		})
	}
	h.Word(uint64(len(m.edges)))
	h.Word(rels)
	return h.Sum()
}

// satisfiable is every set satisfiable and, over the edges plus each related
// root's bounds, no negative cycle (Bellman-Ford from an all-zero start).
// Fuzzed values are small, so no weight overflows.
func (m *refStore) satisfiable() bool {
	for _, set := range m.cons {
		if !set.Satisfiable() {
			return false
		}
	}
	if len(m.edges) == 0 {
		return true
	}
	const zero = RootID(-1)
	dist := map[RootID]int64{zero: 0}
	type edge struct {
		from, to RootID
		w        int64
	}
	var edges []edge
	for k, w := range m.edges {
		edges = append(edges, edge{k[0], k[1], w})
		dist[k[0]], dist[k[1]] = 0, 0
	}
	for r := range dist {
		if set := m.cons[r]; r != zero && set != nil {
			if set.hasHi {
				edges = append(edges, edge{zero, r, set.hi})
			}
			if set.hasLo {
				edges = append(edges, edge{r, zero, -set.lo})
			}
		}
	}
	for pass := 0; pass <= len(dist); pass++ {
		changed := false
		for _, e := range edges {
			if d := dist[e.from] + e.w; d < dist[e.to] {
				dist[e.to] = d
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// check compares every observable of s against the reference, including the
// constraints of roots never minted.
func (m *refStore) check(t *testing.T, s *Store, where string) {
	t.Helper()
	if got, want := s.Key(), m.key(); got != want {
		t.Fatalf("%s: Key %q, reference %q", where, got, want)
	}
	h := NewHash64()
	s.KeyHash(&h)
	if got, want := h.Sum(), m.keyHash(); got != want {
		t.Fatalf("%s: KeyHash %x, reference %x (key %q)", where, got, want, s.Key())
	}
	if got, want := s.Satisfiable(), m.satisfiable(); got != want {
		t.Fatalf("%s: Satisfiable %v, reference %v (key %q)", where, got, want, s.Key())
	}
	if got, want := s.Describe(), m.describe(); got != want {
		t.Fatalf("%s: Describe %q, reference %q", where, got, want)
	}
	if s.RootsMinted() != m.next {
		t.Fatalf("%s: %d roots minted, reference %d", where, s.RootsMinted(), m.next)
	}
	for r := RootID(0); r < m.next+4; r++ {
		got := s.RootConstraints(r)
		switch want := m.cons[r]; {
		case want != nil && !want.Unconstrained():
			if got == nil || got.Key() != want.Key() {
				t.Fatalf("%s: e#%d constraints %v, reference %v", where, r, got, want)
			}
		case r < m.next:
			if got == nil || !got.Unconstrained() {
				t.Fatalf("%s: minted e#%d constraints %v, want unconstrained", where, r, got)
			}
		default:
			if got != nil {
				t.Fatalf("%s: never-minted e#%d constraints %v, want nil", where, r, got)
			}
		}
	}
}

// FuzzStoreOps drives random NewRoot, ConstrainRoot, ConstrainTermNotIn,
// AddRel and Clone sequences over a family of stores that share backing
// arrays, and checks each against its own map-based reference after every
// operation, and all of them at the end: a write through an array a clone
// still shares shows up as a sibling drifting from its reference.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 5, 3, 4, 1, 1, 2, 7, 5, 0, 1, 1, 4, 9})
	f.Add([]byte{0, 0, 0, 4, 3, 0, 1, 0, 2, 1, 1, 1, 0, 250, 4, 2, 2, 2, 3, 1, 1, 5, 1, 1})
	f.Add([]byte{0, 0, 2, 1, 0, 1, 4, 7, 2, 3, 9, 4, 1, 2, 0, 6, 5, 0, 1, 2, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		next := func() int64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b)
		}
		small := func() int64 { return int64(int8(next())) }
		stores, refs := []*Store{NewStore()}, []*refStore{newRefStore()}
		cur := 0
		for step := 0; len(data) > 0; step++ {
			s, m := stores[cur], refs[cur]
			root := func() RootID { return RootID(next() % int64(m.next+3)) }
			var op string
			switch next() % 6 {
			case 0:
				op = "NewRoot"
				if r := s.NewRoot(); r != m.next {
					t.Fatalf("step %d: NewRoot %d, reference %d", step, r, m.next)
				}
				m.next++
			case 1:
				r, cmp, v := root(), isa.Cmp(1+next()%6), small()
				op = fmt.Sprintf("ConstrainRoot(e#%d %v %d)", r, cmp, v)
				got := s.ConstrainRoot(r, cmp, v)
				if want := m.set(r).AddCmp(cmp, v); got != want {
					t.Fatalf("step %d: %s = %v, reference %v", step, op, got, want)
				}
			case 2:
				tm := Term{Root: root(), Coeff: []int64{1, -1, 2, -3}[next()%4], Off: small()}
				vals := make([]int64, 1+next()%4)
				for i := range vals {
					vals[i] = small()
				}
				sub := small()
				op = fmt.Sprintf("ConstrainTermNotIn(%v, %v, %d)", tm, vals, sub)
				got := s.ConstrainTermNotIn(tm, vals, sub)
				want := true
				for _, v := range vals {
					_, rootVal, tautology, ok := tm.InvertCmp(isa.CmpNe, v-sub)
					if !ok {
						m.set(tm.Root).MarkUnsat()
						want = false
						break
					}
					if !tautology && !m.set(tm.Root).AddCmp(isa.CmpNe, rootVal) {
						want = false
						break
					}
				}
				if got != want {
					t.Fatalf("step %d: %s = %v, reference %v", step, op, got, want)
				}
			case 3:
				x, y, cmp, d := root(), root(), isa.Cmp(1+next()%6), small()
				op = fmt.Sprintf("AddRel(e#%d %v e#%d+%d)", x, cmp, y, d)
				handled, _ := s.AddRel(FreshTerm(x), cmp, Term{Root: y, Coeff: 1, Off: d})
				want := x != y && cmp != isa.CmpNe
				if want {
					switch cmp { // x - y cmp d
					case isa.CmpLe:
						m.addEdge(y, x, d)
					case isa.CmpLt:
						m.addEdge(y, x, d-1)
					case isa.CmpGe:
						m.addEdge(x, y, -d)
					case isa.CmpGt:
						m.addEdge(x, y, -d-1)
					case isa.CmpEq:
						m.addEdge(y, x, d)
						m.addEdge(x, y, -d)
					}
				}
				if handled != want {
					t.Fatalf("step %d: %s handled = %v, reference %v", step, op, handled, want)
				}
			case 4:
				if len(stores) < 8 {
					op = fmt.Sprintf("Clone -> store %d", len(stores))
					stores, refs = append(stores, s.Clone()), append(refs, m.clone())
				}
			case 5:
				cur = int(next()) % len(stores)
				op = fmt.Sprintf("switch to store %d", cur)
			}
			m.check(t, s, fmt.Sprintf("step %d (store %d, %s)", step, cur, op))
		}
		for i, s := range stores {
			refs[i].check(t, s, fmt.Sprintf("end, store %d", i))
		}
	})
}
