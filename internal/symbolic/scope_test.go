package symbolic

import (
	"testing"

	"symplfied/internal/isa"
)

// storeFingerprint captures everything observable about a store.
func storeFingerprint(s *Store) (string, uint64) {
	h := NewHash64()
	s.KeyHash(&h)
	return s.Key(), h.Sum()
}

// storeState is a store's observable state at one point of a clone chain.
type storeState struct {
	key  string
	hash uint64
	sat  bool
}

func stateOf(s *Store) storeState {
	key, hash := storeFingerprint(s)
	return storeState{key, hash, s.Satisfiable()}
}

// TestScopePushPopBalance drives deep clone chains — the shape forking
// produces: at every depth it clones the store (push) and mutates the parent,
// then checks that every clone taken earlier still shows its state (pop
// back to it). At the end each clone replays the step the parent took from
// it and must reach the state the parent reached. Clones share backing
// arrays, so a sorted insert that writes through a shared array is exactly
// what this catches.
func TestScopePushPopBalance(t *testing.T) {
	cases := []struct {
		name  string
		depth int
		step  func(s *Store, r RootID, lvl int)
	}{
		{"interval-tightening", 64, func(s *Store, r RootID, lvl int) {
			s.ConstrainRoot(r, isa.CmpGe, int64(lvl))
			s.ConstrainRoot(r, isa.CmpLe, int64(lvl+100))
		}},
		{"disequalities", 64, func(s *Store, r RootID, lvl int) {
			s.ConstrainRoot(r, isa.CmpNe, int64(lvl))
		}},
		{"fresh-roots-and-terms", 32, func(s *Store, r RootID, lvl int) {
			// Level lvl mints roots 2lvl+1 and 2lvl+2 and constrains only
			// the second; the next level's first write constrains the first,
			// an insert into the middle of a shared entry list.
			if lvl > 0 {
				s.ConstrainRoot(RootID(2*lvl-1), isa.CmpGe, int64(lvl))
			}
			a, b := s.NewRoot(), s.NewRoot()
			s.SetTerm(isa.RegLoc(isa.Reg(lvl%30)), FreshTerm(a))
			s.ConstrainRoot(b, isa.CmpEq, int64(lvl))
		}},
		{"relations", 32, func(s *Store, r RootID, lvl int) {
			nr := s.NewRoot()
			s.AddRel(FreshTerm(r), isa.CmpLt, FreshTerm(nr))
		}},
		{"unsat-then-pop", 16, func(s *Store, r RootID, lvl int) {
			s.ConstrainRoot(r, isa.CmpGt, 10)
			s.ConstrainRoot(r, isa.CmpLt, 5) // now unsatisfiable
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			root := s.Inject(isa.RegLoc(4))
			s.ConstrainRoot(root, isa.CmpGe, -1000)

			type level struct {
				clone         *Store
				before, after storeState
			}
			var chain []level
			for lvl := 0; lvl < tc.depth; lvl++ {
				before := stateOf(s)
				chain = append(chain, level{clone: s.Clone(), before: before})
				tc.step(s, root, lvl)
				chain[lvl].after = stateOf(s)
				for d, l := range chain {
					if got := stateOf(l.clone); got != l.before {
						t.Fatalf("%s: step %d changed the clone taken at depth %d:\n taken %+v\n now   %+v",
							tc.name, lvl, d, l.before, got)
					}
				}
			}
			// Deepest first, so each replay runs while shallower clones
			// still share arrays with it.
			for lvl := tc.depth - 1; lvl >= 0; lvl-- {
				l := chain[lvl]
				if got := stateOf(l.clone); got != l.before {
					t.Fatalf("%s depth %d: a deeper replay changed this clone:\n taken %+v\n now   %+v",
						tc.name, lvl, l.before, got)
				}
				tc.step(l.clone, root, lvl)
				if got := stateOf(l.clone); got != l.after {
					t.Fatalf("%s depth %d: replaying the step on the clone diverged:\n parent %+v\n clone  %+v",
						tc.name, lvl, l.after, got)
				}
			}
		})
	}
}

// TestInternPointerEquality pins the hash-consing invariant: structurally
// equal constraint sets intern to the same pointer, and interned sets refuse
// mutation.
func TestInternPointerEquality(t *testing.T) {
	build := func() *Constraints {
		c := NewConstraints()
		c.AddCmp(isa.CmpGe, 3)
		c.AddCmp(isa.CmpLe, 9)
		c.AddCmp(isa.CmpNe, 5)
		return c
	}
	a, b := Intern(build()), Intern(build())
	if a != b {
		t.Fatalf("equal content interned to distinct pointers %p %p", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mutating an interned Constraints did not panic")
		}
	}()
	a.AddCmp(isa.CmpEq, 4)
}
