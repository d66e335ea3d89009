package symexec

import (
	"fmt"
	"os"

	"symplfied/internal/isa"
	"symplfied/internal/symbolic"
)

// CheckKeyCollisions enables the visited-set collision audit: every state
// hash handed out by a Keyer is cross-checked against the full canonical
// Key() string, and a 64-bit collision (two states with equal hashes but
// different canonical encodings) panics with both encodings. The audit
// restores the old allocation cost, so it is a debug flag, not a default;
// set it in a test or export SYMPLFIED_CHECK_KEY_COLLISIONS=1.
var CheckKeyCollisions = os.Getenv("SYMPLFIED_CHECK_KEY_COLLISIONS") != ""

// Keyer produces visited-set keys for the states of one search. It exists so
// a search loop gets the collision-audit bookkeeping (and any future scratch
// reuse) without per-state setup; a Keyer is single-goroutine like the
// search it serves.
type Keyer struct {
	// audit maps hash → canonical string when collision checking is on.
	audit map[uint64]string
}

// NewKeyer returns a Keyer, with the collision audit armed when
// CheckKeyCollisions is set.
func NewKeyer() *Keyer {
	k := &Keyer{}
	if CheckKeyCollisions {
		k.audit = make(map[uint64]string)
	}
	return k
}

// Hash returns the state's 64-bit visited-set key.
func (k *Keyer) Hash(s *State) uint64 {
	h := s.KeyHash()
	if k.audit != nil {
		full := s.Key()
		if prev, ok := k.audit[h]; ok {
			if prev != full {
				panic(fmt.Sprintf("symexec: state key hash collision: %#x keys both\n  %q\nand\n  %q", h, prev, full))
			}
		} else {
			k.audit[h] = full
		}
	}
	return h
}

// hashValue feeds a machine word: a tag for err, else the integer.
func hashValue(h *symbolic.Hash64, v isa.Value) {
	if v.IsErr() {
		h.Byte(0xFF) // distinct from any byte the integer encoding emits after the tag
		return
	}
	h.Byte(0)
	h.Int(v.MustConcrete())
}

// KeyHash returns a 64-bit hash of the state's canonical encoding — the same
// configuration Key() renders (PC, step counter, input cursor, registers,
// memory, constraint store, output stream, status, stuck set) — built
// incrementally without sorting or string construction. Two states with
// equal Key() strings always hash equal; the converse can fail only by
// 64-bit collision, which the Keyer audits under CheckKeyCollisions.
//
// The hash is stable for the lifetime of the process only: it seeds
// in-memory visited sets and prune memos, never anything persisted
// (durable identities go through internal/fingerprint).
func (s *State) KeyHash() uint64 {
	return s.hashConfig(true)
}

// LoopHash hashes the configuration excluding the step counter: two states
// with equal LoopHash take identical deterministic transitions (stepping
// consults Steps only for the watchdog). The merged explorer's cycle
// accelerator uses it to prove a state revisited its own configuration.
func (s *State) LoopHash() uint64 {
	return s.hashConfig(false)
}

// hashConfig is the single encoder behind KeyHash and LoopHash, so the two
// can never drift apart on the shared components.
func (s *State) hashConfig(withSteps bool) uint64 {
	h := symbolic.NewHash64()
	h.Int(int64(s.PC))
	if withSteps {
		h.Int(int64(s.Steps))
	}
	h.Int(int64(s.InPos))
	for r := range s.Regs {
		hashValue(&h, s.Regs[r])
	}
	// Slot order is not canonical: fold a per-word hash commutatively so the
	// table needs no sorting. Key() sorts addresses for the same
	// canonicality.
	var mem uint64
	s.Mem.Range(func(a int64, v isa.Value) bool {
		mem += entryHash(a, v)
		return true
	})
	h.Word(uint64(s.Mem.Len()))
	h.Word(mem)
	s.Sym.KeyHash(&h)
	// The output stream is ordered but Key() compares its rendering, where
	// item boundaries vanish ("a"+"bc" equals "ab"+"c"); hash the rendered
	// characters to keep exactly that equivalence.
	for _, o := range s.Out {
		if o.IsStr {
			h.Str(o.Str)
		} else if o.Val.IsErr() {
			h.Str("err")
		} else {
			h.Decimal(o.Val.MustConcrete())
		}
	}
	h.Int(int64(s.Status))
	var stuck uint64
	for l := range s.Stuck {
		e := symbolic.NewHash64()
		e.Bool(l.IsMem)
		e.Int(l.Addr)
		e.Int(int64(l.Reg))
		stuck += e.Sum()
	}
	h.Word(uint64(len(s.Stuck)))
	h.Word(stuck)
	return h.Sum()
}

// entryHash hashes one memory cell for the commutative fold.
func entryHash(addr int64, v isa.Value) uint64 {
	e := symbolic.NewHash64()
	e.Int(addr)
	hashValue(&e, v)
	return e.Sum()
}
