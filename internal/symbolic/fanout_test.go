package symbolic

import (
	"math/rand"
	"testing"

	"symplfied/internal/isa"
)

// notInLoop is the loop ConstrainTermNotIn replaces: one ConstrainTerm per
// value, stopping at the first infeasible one.
func notInLoop(s *Store, t Term, vals []int64, sub int64) bool {
	for _, v := range vals {
		if !s.ConstrainTerm(t, isa.CmpNe, v-sub) {
			return false
		}
	}
	return true
}

// TestConstrainTermNotInMatchesLoop checks the batched disequalities against
// the sequential ConstrainTerm(CmpNe) loop on random stores: coefficients ±1,
// ±2, -7 and 0, offsets near the int64 limits, unbounded, bounded, exact,
// unsatisfiable and absent roots, and batches aimed at a narrow interval so
// that they often leave the root exact or unsatisfiable. Verdicts must agree;
// a satisfiable result must leave the same interned set (pointer equality)
// and the same store.
func TestConstrainTermNotInMatchesLoop(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	coeffs := []int64{1, -1, 2, -2, -7, 0}
	limits := []int64{0, 1, -1, maxInt64, minInt64, maxInt64 - 3, minInt64 + 3}
	small := func() int64 { return int64(r.Intn(21) - 10) }
	pick := func(xs []int64) int64 {
		if r.Intn(3) == 0 {
			return xs[r.Intn(len(xs))]
		}
		return small()
	}
	var sat, unsat, exact, empty int
	for iter := 0; iter < 20000; iter++ {
		s := NewStore()
		root := s.NewRoot()
		other := s.NewRoot()
		s.ConstrainRoot(other, isa.CmpGe, 3)
		var lo, hi int64 = -12, 12
		switch r.Intn(6) {
		case 0: // unbounded, with a few disequalities
			for n := r.Intn(3); n > 0; n-- {
				s.ConstrainRoot(root, isa.CmpNe, small())
			}
		case 1: // a narrow interval a batch can pin or empty
			lo = small()
			hi = lo + int64(r.Intn(6))
			s.ConstrainRoot(root, isa.CmpGe, lo)
			s.ConstrainRoot(root, isa.CmpLe, hi)
		case 2: // already exact
			lo = small()
			hi = lo
			s.ConstrainRoot(root, isa.CmpEq, lo)
		case 3: // already unsatisfiable
			s.markRootUnsat(root)
		case 4: // bounded at the int64 limit
			hi = maxInt64
			lo = hi - int64(r.Intn(4))
			s.ConstrainRoot(root, isa.CmpGe, lo)
		case 5: // never minted by this store
			root = RootID(9)
		}
		term := Term{Root: root, Coeff: coeffs[r.Intn(len(coeffs))], Off: pick(limits)}
		sub := pick(limits)
		vals := make([]int64, r.Intn(10))
		for i := range vals {
			if r.Intn(4) == 0 {
				vals[i] = pick(limits)
				continue
			}
			// Aim at the term's value for a root inside (or just outside)
			// the interval, so the atoms are rarely tautologies.
			x := lo + int64(r.Intn(int(hi-lo)+3)) - 1
			if hi-lo > 20 {
				x = small()
			}
			vals[i] = term.Coeff*x + term.Off + sub
		}

		batch := s.Clone()
		before := s.RootConstraints(root)
		want := notInLoop(s, term, vals, sub)
		got := batch.ConstrainTermNotIn(term, vals, sub)
		if got != want {
			t.Fatalf("iter %d: ConstrainTermNotIn(%v, %v, %d) = %v, loop = %v; root before %v",
				iter, term, vals, sub, got, want, before)
		}
		if !want {
			unsat++
			if c := batch.RootConstraints(root); c == nil || c.Satisfiable() {
				t.Fatalf("iter %d: infeasible batch left root %v", iter, c)
			}
			continue
		}
		sat++
		if a, b := s.RootConstraints(root), batch.RootConstraints(root); a != b {
			t.Fatalf("iter %d: loop set %v (%p), batch set %v (%p)", iter, a, a, b, b)
		}
		k1, h1 := storeFingerprint(s)
		if k2, h2 := storeFingerprint(batch); k1 != k2 || h1 != h2 {
			t.Fatalf("iter %d: stores differ: %q vs %q", iter, k1, k2)
		}
		if isExact(batch.RootConstraints(root)) && !isExact(before) {
			exact++
		}
		if len(vals) == 0 {
			empty++
		}
	}
	t.Logf("%d satisfiable (%d made exact, %d empty batches), %d infeasible", sat, exact, empty, unsat)
	if sat < 1000 || unsat < 1000 || exact < 200 {
		t.Fatalf("degenerate generator: %d satisfiable, %d exact, %d infeasible", sat, exact, unsat)
	}
}

func isExact(c *Constraints) bool {
	if c == nil {
		return false
	}
	_, ok := c.Exact()
	return ok
}

// TestConstrainTermNotInCases pins the shapes by hand.
func TestConstrainTermNotInCases(t *testing.T) {
	cases := []struct {
		name    string
		setup   func(s *Store, r RootID)
		term    func(r RootID) Term
		vals    []int64
		sub     int64
		want    bool
		exactly int64 // when nonzero, the root must end pinned here
	}{
		{"empty batch", func(*Store, RootID) {}, FreshTerm, nil, 0, true, 0},
		{"pins a pair", func(s *Store, r RootID) {
			s.ConstrainRoot(r, isa.CmpGe, 4)
			s.ConstrainRoot(r, isa.CmpLe, 5)
		}, FreshTerm, []int64{104}, 100, true, 5},
		{"empties an interval", func(s *Store, r RootID) {
			s.ConstrainRoot(r, isa.CmpGe, 4)
			s.ConstrainRoot(r, isa.CmpLe, 6)
		}, FreshTerm, []int64{6, 4, 5}, 0, false, 0},
		{"excludes the top value", func(s *Store, r RootID) {
			s.ConstrainRoot(r, isa.CmpGe, maxInt64)
		}, FreshTerm, []int64{maxInt64}, 0, false, 0},
		{"zero coefficient hit", func(*Store, RootID) {},
			func(r RootID) Term { return Term{Root: r, Off: 7} }, []int64{1, 7}, 0, false, 0},
		{"zero coefficient miss", func(*Store, RootID) {},
			func(r RootID) Term { return Term{Root: r, Off: 7} }, []int64{1, 8}, 0, true, 0},
		{"tautologies on an unsat root", func(s *Store, r RootID) { s.markRootUnsat(r) },
			func(r RootID) Term { return Term{Root: r, Coeff: 2} }, []int64{1, 3}, 0, true, 0},
		{"atom on an unsat root", func(s *Store, r RootID) { s.markRootUnsat(r) },
			FreshTerm, []int64{1}, 0, false, 0},
		{"overflowing offset", func(*Store, RootID) {},
			func(r RootID) Term { return Term{Root: r, Coeff: 1, Off: minInt64} }, []int64{maxInt64}, 0, true, 0},
	}
	for _, tc := range cases {
		loop, batch := NewStore(), NewStore()
		r := loop.NewRoot()
		batch.NewRoot()
		tc.setup(loop, r)
		tc.setup(batch, r)
		want := notInLoop(loop, tc.term(r), tc.vals, tc.sub)
		got := batch.ConstrainTermNotIn(tc.term(r), tc.vals, tc.sub)
		if want != tc.want || got != tc.want {
			t.Errorf("%s: batch %v, loop %v, want %v", tc.name, got, want, tc.want)
			continue
		}
		if got && loop.RootConstraints(r) != batch.RootConstraints(r) {
			t.Errorf("%s: loop set %v, batch set %v", tc.name, loop.RootConstraints(r), batch.RootConstraints(r))
		}
		if tc.exactly != 0 {
			if v, ok := batch.RootConstraints(r).Exact(); !ok || v != tc.exactly {
				t.Errorf("%s: root %v, want pinned to %d", tc.name, batch.RootConstraints(r), tc.exactly)
			}
		}
	}
}

// TestConstrainRootEqMatchesAddCmp checks the equality fast path, which
// interns the pinned set directly, against conjoining the atom on a copy of
// the root's set with AddCmp: same verdict and, when feasible, the same
// interned pointer, over bounded, disequality-carrying, exact, unsatisfiable
// and absent roots.
func TestConstrainRootEqMatchesAddCmp(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	small := func() int64 { return int64(r.Intn(21) - 10) }
	for iter := 0; iter < 5000; iter++ {
		s := NewStore()
		root := s.NewRoot()
		for n := r.Intn(5); n > 0; n-- {
			switch r.Intn(4) {
			case 0:
				s.ConstrainRoot(root, isa.CmpNe, small())
			case 1:
				s.ConstrainRoot(root, isa.CmpGe, small())
			case 2:
				s.ConstrainRoot(root, isa.CmpLe, small())
			case 3:
				s.ConstrainRoot(root, isa.CmpEq, small())
			}
		}
		if r.Intn(10) == 0 {
			s.markRootUnsat(root)
		}
		if r.Intn(10) == 0 {
			root = RootID(7)
		}
		v := small()
		cur := s.RootConstraints(root)
		if cur == nil {
			cur = internedEmpty
		}
		ref := cur.Clone()
		wantSat := ref.AddCmp(isa.CmpEq, v)
		if got := s.ConstrainRoot(root, isa.CmpEq, v); got != wantSat {
			t.Fatalf("iter %d: ConstrainRoot(== %d) on %v = %v, AddCmp = %v", iter, v, cur, got, wantSat)
		}
		if wantSat && s.RootConstraints(root) != Intern(ref) {
			t.Fatalf("iter %d: pinned set %v, AddCmp set %v", iter, s.RootConstraints(root), ref)
		}
	}
}
