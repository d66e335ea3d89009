package symbolic

import (
	"math/rand"
	"testing"

	"symplfied/internal/isa"
)

// clonedEq is the probe AdmitsEq answers without a copy: conjoin "t == v"
// on a clone of the store.
func clonedEq(s *Store, t Term, v int64) bool {
	return s.Clone().ConstrainTerm(t, isa.CmpEq, v)
}

// TestAdmitsEqMatchesScopedConstrain checks the read-only equality probe
// against ConstrainTerm(CmpEq) on a clone, on random stores: coefficients ±1
// and larger, offsets near the int64 limits, unconstrained, bounded,
// disequality-carrying and unsatisfiable sets, relations between roots,
// and terms over roots the store has never seen. It also checks that
// neither the probe nor the constrained clone changes the store.
func TestAdmitsEqMatchesScopedConstrain(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	coeffs := []int64{1, -1, 2, -2, 3, -7, 1 << 40, -(1 << 40), maxInt64, minInt64 + 1}
	offsets := []int64{0, 1, -1, 5, -13, maxInt64, minInt64, maxInt64 - 3, minInt64 + 3}
	small := func() int64 { return int64(r.Intn(41) - 20) }
	pick := func(xs []int64) int64 {
		if r.Intn(3) == 0 {
			return small()
		}
		return xs[r.Intn(len(xs))]
	}
	cmps := []isa.Cmp{isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt, isa.CmpGe}
	agree, admitted := 0, 0
	for iter := 0; iter < 20000; iter++ {
		s := NewStore()
		roots := []RootID{s.NewRoot(), s.NewRoot()}
		for n := r.Intn(6); n > 0; n-- {
			root := roots[r.Intn(len(roots))]
			switch r.Intn(4) {
			case 0:
				s.ConstrainRoot(root, isa.CmpNe, small())
			case 1:
				s.ConstrainRoot(root, cmps[r.Intn(len(cmps))], pick(offsets))
			case 2:
				s.ConstrainRoot(root, cmps[r.Intn(len(cmps))], small())
			case 3:
				s.AddRel(FreshTerm(roots[0]), isa.CmpLt, FreshTerm(roots[1]))
			}
		}
		if r.Intn(20) == 0 {
			s.markRootUnsat(roots[r.Intn(len(roots))])
		}
		root := roots[r.Intn(len(roots))]
		if r.Intn(8) == 0 {
			root = RootID(10 + r.Intn(5)) // absent from cons
		}
		term := Term{Root: root, Coeff: pick(coeffs), Off: pick(offsets)}
		if r.Intn(4) == 0 {
			term.Coeff = 1
		}
		v := pick(offsets)
		if r.Intn(3) == 0 {
			// Aim at the set's own boundary so pinned and excluded values
			// come up often.
			if c := s.RootConstraints(root); c != nil && c.hasLo {
				if x, ok := mulOvf(term.Coeff, c.lo); ok {
					if y, ok := addOvf(x, term.Off); ok {
						v = y + int64(r.Intn(3)-1)
					}
				}
			}
		}
		key, hash := storeFingerprint(s)
		got := s.AdmitsEq(term, v)
		if k2, h2 := storeFingerprint(s); k2 != key || h2 != hash {
			t.Fatalf("iter %d: AdmitsEq mutated the store: %q -> %q", iter, key, k2)
		}
		want := clonedEq(s, term, v)
		if got != want {
			t.Fatalf("iter %d: AdmitsEq(%v == %d) = %v, cloned ConstrainTerm = %v; store %q",
				iter, term, v, got, want, key)
		}
		if k2, h2 := storeFingerprint(s); k2 != key || h2 != hash {
			t.Fatalf("iter %d: constraining a clone mutated the store: %q -> %q", iter, key, k2)
		}
		agree++
		if got {
			admitted++
		}
	}
	if admitted == 0 || admitted == agree {
		t.Fatalf("degenerate generator: %d of %d probes admitted", admitted, agree)
	}
}

// TestAdmitsEqCases pins the shapes by hand: a pinned root, a disequality,
// a coefficient that does not divide, the overflow tautology, and an
// unsatisfiable set.
func TestAdmitsEqCases(t *testing.T) {
	s := NewStore()
	a, b, c := s.NewRoot(), s.NewRoot(), s.NewRoot()
	s.ConstrainRoot(a, isa.CmpEq, 4)
	s.ConstrainRoot(b, isa.CmpNe, 9)
	s.markRootUnsat(c)
	cases := []struct {
		name string
		t    Term
		v    int64
		want bool
	}{
		{"pinned hit", FreshTerm(a), 4, true},
		{"pinned miss", FreshTerm(a), 5, false},
		{"affine pinned", Term{Root: a, Coeff: 3, Off: 1}, 13, true},
		{"affine not divisible", Term{Root: b, Coeff: 3, Off: 1}, 12, false},
		{"disequality", FreshTerm(b), 9, false},
		{"negated disequality", Term{Root: b, Coeff: -1}, -9, false},
		{"open", FreshTerm(b), 10, true},
		{"unsat", FreshTerm(c), 0, false},
		{"absent root", FreshTerm(42), 7, true},
		{"overflow tautology", Term{Root: a, Coeff: 1, Off: minInt64}, maxInt64, true},
	}
	for _, tc := range cases {
		if got := s.AdmitsEq(tc.t, tc.v); got != tc.want {
			t.Errorf("%s: AdmitsEq(%v == %d) = %v, want %v", tc.name, tc.t, tc.v, got, tc.want)
		}
		if got, want := s.AdmitsEq(tc.t, tc.v), clonedEq(s, tc.t, tc.v); got != want {
			t.Errorf("%s: AdmitsEq %v, cloned probe %v", tc.name, got, want)
		}
	}
}
