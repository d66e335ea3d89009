package symbolic

import (
	"runtime"
	"testing"

	"symplfied/internal/isa"
)

func TestStoreInjectAndClear(t *testing.T) {
	s := NewStore()
	loc := isa.RegLoc(3)
	root := s.Inject(loc)
	tm, ok := s.Term(loc)
	if !ok || tm.Root != root || tm.Coeff != 1 || tm.Off != 0 {
		t.Fatalf("injected term %+v ok=%v", tm, ok)
	}
	s.Clear(loc)
	if _, ok := s.Term(loc); ok {
		t.Fatal("Clear did not remove the term")
	}
	// Root constraints survive clearing the location.
	if s.RootConstraints(root) == nil {
		t.Fatal("root constraints dropped on Clear")
	}
}

func TestStoreConstrainTerm(t *testing.T) {
	s := NewStore()
	root := s.NewRoot()
	tm := Term{Root: root, Coeff: 5, Off: -5} // 5x - 5

	// 5x - 5 >= 25  =>  x >= 6.
	if !s.ConstrainTerm(tm, isa.CmpGe, 25) {
		t.Fatal("satisfiable constraint rejected")
	}
	c := s.RootConstraints(root)
	if c.Admits(5) || !c.Admits(6) {
		t.Fatalf("translated constraint wrong: %s", c)
	}

	// Adding 5x - 5 < 25 (x < 6) makes it unsatisfiable.
	if s.ConstrainTerm(tm, isa.CmpLt, 25) {
		t.Fatal("contradiction not detected")
	}
	if s.Satisfiable() {
		t.Fatal("store satisfiable after contradiction")
	}
}

func TestStoreExactValue(t *testing.T) {
	s := NewStore()
	root := s.NewRoot()
	tm := Term{Root: root, Coeff: 2, Off: 1}
	if !s.ConstrainTerm(tm, isa.CmpEq, 7) { // 2x+1 == 7 => x == 3
		t.Fatal("equality rejected")
	}
	if v, ok := s.ExactValue(tm); !ok || v != 7 {
		t.Fatalf("ExactValue = %d, %v (want 7)", v, ok)
	}
	// A different term over the same root also concretizes.
	other := Term{Root: root, Coeff: -1, Off: 10}
	if v, ok := s.ExactValue(other); !ok || v != 7 {
		t.Fatalf("ExactValue(sibling) = %d, %v (want 10-3=7)", v, ok)
	}
}

func TestStoreEqualityImpossible(t *testing.T) {
	s := NewStore()
	root := s.NewRoot()
	tm := Term{Root: root, Coeff: 2} // even numbers only
	if s.ConstrainTerm(tm, isa.CmpEq, 7) {
		t.Fatal("2x == 7 accepted over the integers")
	}
}

func TestStoreDisequalityNonDivisibleIsNoop(t *testing.T) {
	s := NewStore()
	root := s.NewRoot()
	tm := Term{Root: root, Coeff: 2}
	if !s.ConstrainTerm(tm, isa.CmpNe, 7) { // always true
		t.Fatal("2x != 7 rejected")
	}
	if !s.RootConstraints(root).Unconstrained() {
		t.Fatalf("tautology recorded an atom: %s", s.RootConstraints(root))
	}
}

func TestStoreCloneIsolation(t *testing.T) {
	s := NewStore()
	loc := isa.RegLoc(1)
	root := s.Inject(loc)
	c := s.Clone()
	c.ConstrainTerm(FreshTerm(root), isa.CmpEq, 3)
	c.Clear(loc)
	if !s.RootConstraints(root).Unconstrained() {
		t.Error("clone constraint leaked into original")
	}
	if _, ok := s.Term(loc); !ok {
		t.Error("clone Clear leaked into original")
	}
	// Fresh roots in the clone do not collide with the original's.
	r2 := c.NewRoot()
	r3 := s.NewRoot()
	if r2 != r3 {
		// Same numbering is fine — they are independent stores — but both
		// must be distinct from the first root.
		if r2 == root || r3 == root {
			t.Error("root numbering collided")
		}
	}
}

// TestStoreTermListCopyOnWrite: clones share the term list, and every way a
// clone shrinks or grows it — concretizing, clearing the last or a middle
// location, adding one after a truncation — leaves the parent's list intact,
// and the parent's own writes leave the clones intact.
func TestStoreTermListCopyOnWrite(t *testing.T) {
	s := NewStore()
	r0, r1 := s.NewRoot(), s.NewRoot()
	for reg := isa.Reg(1); reg <= 4; reg++ {
		s.SetTerm(isa.RegLoc(reg), FreshTerm([]RootID{r0, r1}[reg%2]))
	}
	want := s.Key()

	pinned := s.Clone()
	pinned.ConstrainRoot(r1, isa.CmpEq, 7)
	var set []isa.Loc
	pinned.ConcretizeRoot(r1, func(loc isa.Loc, v int64) { set = append(set, loc) })
	if len(set) != 2 || len(pinned.Locs()) != 2 {
		t.Errorf("concretized %v, %v left; want $2 and $4 concretized, $1 and $3 left", set, pinned.Locs())
	}
	truncated := s.Clone()
	truncated.Clear(isa.RegLoc(4))
	truncated.SetTerm(isa.RegLoc(5), FreshTerm(r0))
	swapped := s.Clone()
	swapped.Clear(isa.RegLoc(1))
	if got := s.Key(); got != want {
		t.Errorf("clone writes leaked into the parent:\n got %q\nwant %q", got, want)
	}
	if _, ok := truncated.Term(isa.RegLoc(4)); ok || len(truncated.Locs()) != 4 {
		t.Errorf("truncated clone holds %v", truncated.Locs())
	}
	if _, ok := swapped.Term(isa.RegLoc(1)); ok || len(swapped.Locs()) != 3 {
		t.Errorf("swapped clone holds %v", swapped.Locs())
	}

	// The parent's own writes stay out of its clones.
	before := truncated.Key()
	s.SetTerm(isa.RegLoc(6), FreshTerm(r1))
	s.Clear(isa.RegLoc(2))
	if got := truncated.Key(); got != before {
		t.Errorf("parent writes leaked into a clone:\n got %q\nwant %q", got, before)
	}
}

func TestStoreLocsSorted(t *testing.T) {
	s := NewStore()
	s.Inject(isa.MemLoc(50))
	s.Inject(isa.RegLoc(9))
	s.Inject(isa.RegLoc(2))
	s.Inject(isa.MemLoc(-3))
	locs := s.Locs()
	want := []isa.Loc{isa.RegLoc(2), isa.RegLoc(9), isa.MemLoc(-3), isa.MemLoc(50)}
	if len(locs) != len(want) {
		t.Fatalf("Locs = %v", locs)
	}
	for i := range want {
		if locs[i] != want[i] {
			t.Fatalf("Locs[%d] = %v, want %v", i, locs[i], want[i])
		}
	}
}

func TestStoreKeyDeterministic(t *testing.T) {
	build := func(order []int) string {
		s := NewStore()
		for _, r := range order {
			s.Inject(isa.RegLoc(isa.Reg(r)))
		}
		return s.Key()
	}
	// Same injections in the same root order produce the same key.
	if build([]int{1, 2, 3}) != build([]int{1, 2, 3}) {
		t.Error("Key not deterministic")
	}
}

func TestStoreDescribe(t *testing.T) {
	s := NewStore()
	if s.Describe() != "no symbolic state" {
		t.Errorf("empty Describe = %q", s.Describe())
	}
	root := s.Inject(isa.RegLoc(3))
	s.ConstrainTerm(FreshTerm(root), isa.CmpGt, 1)
	d := s.Describe()
	if d == "no symbolic state" || len(d) == 0 {
		t.Errorf("Describe = %q", d)
	}
}

// TestForkConstrainCostIndependentOfRootsMinted pins the fork cost to what
// the path constrained: cloning a store and constraining one root allocates
// the same bytes whether the store has minted 10 roots or 10,000, because
// minting records nothing and a clone copies only the constrained roots.
func TestForkConstrainCostIndependentOfRootsMinted(t *testing.T) {
	const runs = 200
	bytesPerOp := func(minted int) uint64 {
		s := NewStore()
		for i := 0; i < minted; i++ {
			s.NewRoot()
		}
		s.ConstrainRoot(0, isa.CmpGe, 0)
		last := RootID(minted - 1)
		s.Clone().ConstrainRoot(last, isa.CmpEq, 7) // warm the intern table
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			s.Clone().ConstrainRoot(last, isa.CmpEq, 7)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	few, many := bytesPerOp(10), bytesPerOp(10_000)
	t.Logf("clone+constrain: %d B/op after 10 roots minted, %d B/op after 10,000", few, many)
	if many > few+64 {
		t.Fatalf("clone+constrain allocates %d B/op after 10,000 roots minted, %d B/op after 10", many, few)
	}
}
