package symexec

import (
	"testing"

	"symplfied/internal/isa"
)

// forkingProgram reads an input, injects err into it, and branches on the
// erroneous value through loads and stores, so a full exploration visits
// states differing in registers, memory, constraints, output, and status.
const forkingProgram = `
	read $1
	st $1 10($0)
	ld $2 10($0)
	beqi $2 5 yes
	prints "no"
	halt
yes:	st $2 11($0)
	prints "yes"
	halt
`

// collectStates explores from s exhaustively, snapshotting every visited
// configuration (intermediate and terminal) via Clone.
func collectStates(t *testing.T, s *State) []*State {
	t.Helper()
	var all []*State
	frontier := []*State{s}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		all = append(all, cur.Clone())
		if len(all) > 10_000 {
			t.Fatal("exploration runaway")
		}
		if !cur.Running() {
			continue
		}
		if cur.StepInPlace() {
			frontier = append(frontier, cur)
		} else {
			frontier = append(frontier, cur.Successors()...)
		}
	}
	return all
}

// TestKeyHashMatchesKeyEquivalence checks the hashed visited-set key against
// the canonical string key over a real exploration: states with equal Key()
// strings must hash equal, and (absent a 64-bit collision, which would be a
// test failure worth knowing about) states with different Key() strings must
// hash differently.
func TestKeyHashMatchesKeyEquivalence(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 1) // read
	s.Inject(isa.RegLoc(1))
	states := collectStates(t, s)
	if len(states) < 8 {
		t.Fatalf("exploration too small to be meaningful: %d states", len(states))
	}

	byKey := map[string]uint64{}
	byHash := map[uint64]string{}
	for _, st := range states {
		key, hash := st.Key(), st.KeyHash()
		if prev, ok := byKey[key]; ok && prev != hash {
			t.Errorf("equal keys hashed differently: %q -> %#x and %#x", key, prev, hash)
		}
		byKey[key] = hash
		if prev, ok := byHash[hash]; ok && prev != key {
			t.Errorf("hash collision: %#x keys both %q and %q", hash, prev, key)
		}
		byHash[hash] = key
	}
	if len(byKey) < 2 {
		t.Fatalf("exploration produced only %d distinct keys", len(byKey))
	}
}

// TestKeyHashStable checks that hashing is a pure function of the state.
func TestKeyHashStable(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 2)
	if a, b := s.KeyHash(), s.KeyHash(); a != b {
		t.Errorf("KeyHash not stable: %#x then %#x", a, b)
	}
	c := s.Clone()
	if a, b := s.KeyHash(), c.KeyHash(); a != b {
		t.Errorf("clone hashes differently: parent %#x, clone %#x", a, b)
	}
}

// TestKeyerCollisionAudit runs the Keyer with the collision audit armed over
// a real exploration: the audit cross-checks every hash against the full
// canonical key and panics on a mismatch, so surviving the sweep is the
// assertion.
func TestKeyerCollisionAudit(t *testing.T) {
	old := CheckKeyCollisions
	CheckKeyCollisions = true
	defer func() { CheckKeyCollisions = old }()

	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 1)
	s.Inject(isa.RegLoc(1))
	keyer := NewKeyer()
	for _, st := range collectStates(t, s) {
		h := keyer.Hash(st)
		if h2 := keyer.Hash(st); h2 != h {
			t.Fatalf("audited hash unstable: %#x then %#x", h, h2)
		}
	}
}

// TestCloneMemCopyOnWrite checks the copy-on-write clone: writes on either
// side of a fork must not leak to the other, and an untouched clone must
// keep its key while the parent diverges.
func TestCloneMemCopyOnWrite(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 2) // read; st $1 10($0)
	if _, ok := s.Mem.Load(10); !ok {
		t.Fatal("store did not populate memory")
	}

	c := s.Clone()
	ckey, chash := c.Key(), c.KeyHash()

	// Parent runs ahead and writes memory again (the yes branch's st).
	stepN(t, s, 4) // ld; beqi (taken: $2 == 5); st $2 11($0); prints
	if _, ok := s.Mem.Load(11); !ok {
		t.Fatal("parent's second store did not land")
	}
	if _, ok := c.Mem.Load(11); ok {
		t.Error("parent's store leaked into the clone's memory")
	}
	if got := c.Key(); got != ckey {
		t.Errorf("clone key changed while only the parent stepped:\n  was %q\n  now %q", ckey, got)
	}
	if got := c.KeyHash(); got != chash {
		t.Errorf("clone hash changed while only the parent stepped: %#x -> %#x", chash, got)
	}

	// Clone writes: the parent must not see it.
	c.Inject(isa.MemLoc(10))
	if v, _ := s.Mem.Load(10); v.IsErr() {
		t.Error("clone's injection leaked into the parent's memory")
	}
	if c.Key() == ckey {
		t.Error("clone's own write did not change its key")
	}
}
