package symbolic

import "symplfied/internal/isa"

// 64-bit incremental state keying. The model checker's visited-set used to
// be keyed on State.Key(), a sorted canonical string rebuilt (with its maps
// sorted and every value rendered) for every explored state; on dedup-heavy
// searches that string construction dominated the hot loop. The replacement
// is an incremental FNV-1a hash over the same canonical encoding: ordered
// components stream straight into the hash, and unordered components (maps,
// sets) fold a per-entry hash with modular addition, which is commutative —
// so no sorting, no intermediate strings, no allocation.
//
// A 64-bit key can collide where the canonical strings would not; the
// checker cross-checks hashes against the full string encodings when
// collision checking is enabled (symexec.CheckKeyCollisions).

// fnvOffset64 and fnvPrime64 are the standard FNV-1a parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 is an incremental FNV-1a hasher for canonical state keying. The
// zero value is NOT ready; start from NewHash64 so equal byte streams yield
// equal sums.
type Hash64 uint64

// NewHash64 returns a hasher at the FNV-1a offset basis.
func NewHash64() Hash64 { return fnvOffset64 }

// Byte feeds one byte.
func (h *Hash64) Byte(b byte) {
	*h = (*h ^ Hash64(b)) * fnvPrime64
}

// Word feeds a 64-bit quantity, little-endian.
func (h *Hash64) Word(w uint64) {
	for i := 0; i < 8; i++ {
		h.Byte(byte(w))
		w >>= 8
	}
}

// Int feeds a signed integer.
func (h *Hash64) Int(n int64) { h.Word(uint64(n)) }

// Bool feeds a boolean as one byte.
func (h *Hash64) Bool(b bool) {
	if b {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
}

// Decimal feeds the ASCII decimal rendering of n — the same characters
// strconv.FormatInt would produce — without allocating. Used where a
// canonical encoding is defined over rendered text (the output stream).
func (h *Hash64) Decimal(n int64) {
	var buf [20]byte
	u := uint64(n)
	if n < 0 {
		h.Byte('-')
		u = uint64(-n) // two's complement: correct magnitude even for MinInt64
	}
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	for ; i < len(buf); i++ {
		h.Byte(buf[i])
	}
}

// Str feeds a string's bytes (no length prefix; callers add separators).
func (h *Hash64) Str(s string) {
	for i := 0; i < len(s); i++ {
		h.Byte(s[i])
	}
}

// Sum returns the current hash value.
func (h Hash64) Sum() uint64 { return uint64(h) }

// entryHash hashes one unordered-collection entry seeded from the FNV
// basis, for commutative folding via modular addition: the fold is
// order-independent and respects multiplicity, so it canonically encodes a
// map or multiset without sorting.
func entryHash(feed func(*Hash64)) uint64 {
	e := NewHash64()
	feed(&e)
	return e.Sum()
}

// contentHash returns the 64-bit canonical content hash of the set: the
// hashInto stream folded from the FNV basis. Interned sets return the value
// cached at intern time; the result is identical either way, so interned and
// scratch sets with equal content always hash equal.
func (c *Constraints) contentHash() uint64 {
	if c.interned {
		return c.hash
	}
	h := NewHash64()
	c.hashInto(&h)
	return h.Sum()
}

// hashInto feeds the constraint set's canonical content: the unsat flag,
// the bounds, and the disequality set folded commutatively.
func (c *Constraints) hashInto(h *Hash64) {
	h.Bool(c.unsat)
	h.Bool(c.hasLo)
	if c.hasLo {
		h.Int(c.lo)
	}
	h.Bool(c.hasHi)
	if c.hasHi {
		h.Int(c.hi)
	}
	var ne uint64
	for v := range c.ne {
		ne += entryHash(func(e *Hash64) { e.Int(v) })
	}
	h.Word(uint64(len(c.ne)))
	h.Word(ne)
}

// hashLoc feeds a location's identity.
func hashLoc(h *Hash64, l isa.Loc) {
	h.Bool(l.IsMem)
	if l.IsMem {
		h.Int(l.Addr)
	} else {
		h.Int(int64(l.Reg))
	}
}

// KeyHash folds the store's canonical content into h: the location→term
// map, the constrained roots' sets, and the difference-relation multiset.
// Unordered components fold commutatively, so the hash equals for exactly
// the stores whose canonical Key strings are equal — without sorting or
// rendering anything.
func (s *Store) KeyHash(h *Hash64) {
	var terms uint64
	for _, lt := range s.terms {
		terms += entryHash(func(e *Hash64) {
			hashLoc(e, lt.loc)
			e.Int(int64(lt.term.Root))
			e.Int(lt.term.Coeff)
			e.Int(lt.term.Off)
		})
	}
	h.Word(uint64(len(s.terms)))
	h.Word(terms)

	var cons uint64
	for _, e := range s.cons {
		cons += entryHash(func(eh *Hash64) {
			eh.Int(int64(e.root))
			eh.Word(e.set.contentHash())
		})
	}
	h.Word(uint64(len(s.cons)))
	h.Word(cons)

	var rels uint64
	for _, e := range s.rels {
		rels += entryHash(func(eh *Hash64) {
			eh.Int(int64(e.from))
			eh.Int(int64(e.to))
			eh.Int(e.weight)
		})
	}
	h.Word(uint64(len(s.rels)))
	h.Word(rels)
}
