package isa

import "slices"

// Memory is a data memory image: a flat open-addressed hash table (linear
// probing, load factor at most 3/4) from word address to value. Any int64
// address can be stored to, including wild pointers built from erroneous
// values; loads report whether the word is defined. A defined word never
// becomes undefined again, so the table has no deletes. The zero Memory is
// empty and ready to use.
//
// Clone shares the table copy-on-write: both images keep reading the same
// slots until one of them stores, which first copies the slots into a table
// of its own — in one allocation, rehashing straight into the doubled size
// when that store would grow the table. Images sharing a table belong to one
// goroutine, so the sharing needs no synchronization. Copy an image only with
// Clone or CopyFrom: a plain assignment aliases the table unmarked.
//
// Slot order depends on the insertion history, so no result may depend on
// the order Range visits words: callers sort the addresses or fold the words
// commutatively.
type Memory struct {
	slots  []memSlot // power-of-two length, or nil before the first store
	n      int       // defined words
	shift  uint8     // 64 - log2(len(slots))
	shared bool      // slots may be referenced by a Clone
}

// memSlot is one table entry; a Value is split into n and tag to keep the
// slot at 24 bytes.
type memSlot struct {
	addr int64
	n    int64
	tag  slotTag
}

type slotTag uint8

const (
	slotEmpty slotTag = iota
	slotInt
	slotErr
)

func (s *memSlot) value() Value { return Value{sym: s.tag == slotErr, n: s.n} }

func (s *memSlot) set(v Value) {
	s.n = v.n
	s.tag = slotInt
	if v.sym {
		s.tag = slotErr
	}
}

// minMemSlots is the table size a first store allocates.
const minMemSlots = 32

// home is addr's first probe slot (Fibonacci hashing).
func (m *Memory) home(addr int64) int {
	return int((uint64(addr) * 0x9E3779B97F4A7C15) >> m.shift)
}

// Load returns the word at addr and whether it is defined.
func (m *Memory) Load(addr int64) (Value, bool) {
	if m.n == 0 {
		return Value{}, false
	}
	mask := len(m.slots) - 1
	for i := m.home(addr); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.tag == slotEmpty {
			return Value{}, false
		}
		if s.addr == addr {
			return s.value(), true
		}
	}
}

// Store defines the word at addr as v and reports whether the image
// changed: storing the value a word already holds changes nothing and
// copies no shared table.
func (m *Memory) Store(addr int64, v Value) (changed bool) {
	if m.shared || 4*(m.n+1) > 3*len(m.slots) {
		if w, ok := m.Load(addr); ok && w == v {
			return false
		}
		m.own()
	}
	mask := len(m.slots) - 1
	for i := m.home(addr); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.tag == slotEmpty {
			s.addr = addr
			s.set(v)
			m.n++
			return true
		}
		if s.addr == addr {
			if s.value() == v {
				return false
			}
			s.set(v)
			return true
		}
	}
}

// own gives m a private table with room for one more word: a copy of a
// shared table at its size, or a rehash into the doubled size when the next
// word would push the load factor past 3/4.
func (m *Memory) own() {
	old := m.slots
	size := max(len(old), minMemSlots)
	if 4*(m.n+1) > 3*len(old) {
		size = max(2*len(old), minMemSlots)
	}
	if size == len(old) {
		m.slots = make([]memSlot, size)
		copy(m.slots, old)
		m.shared = false
		return
	}
	if !m.shared && len(old) == 0 && cap(old) >= size {
		// Emptied by a CopyFrom of an empty image: reuse.
		m.slots = old[:size]
		clear(m.slots)
	} else {
		m.slots = make([]memSlot, size)
	}
	m.shared = false
	m.rehash(old)
}

// rehash sets the shift for m's (cleared) table and inserts the words of
// old into it.
func (m *Memory) rehash(old []memSlot) {
	m.shift = 64
	for s := len(m.slots); s > 1; s >>= 1 {
		m.shift--
	}
	mask := len(m.slots) - 1
	for j := range old {
		if old[j].tag == slotEmpty {
			continue
		}
		i := m.home(old[j].addr)
		for m.slots[i].tag != slotEmpty {
			i = (i + 1) & mask
		}
		m.slots[i] = old[j]
	}
}

// Grow makes room for n more words, so that defining them does not grow
// the table again: when they could push the load factor past 3/4, it
// rehashes into a private table of the size they need in one allocation.
func (m *Memory) Grow(n int) {
	if n <= 0 {
		return
	}
	size := max(len(m.slots), minMemSlots)
	for 4*(m.n+n) > 3*size {
		size *= 2
	}
	if size == len(m.slots) {
		return
	}
	old := m.slots
	m.slots = make([]memSlot, size)
	m.shared = false
	m.rehash(old)
}

// Len returns the number of defined words.
func (m *Memory) Len() int { return m.n }

// Range calls yield for every defined word, in slot order, until yield
// returns false.
func (m *Memory) Range(yield func(addr int64, v Value) bool) {
	if m.n == 0 {
		return
	}
	for i := range m.slots {
		if s := &m.slots[i]; s.tag != slotEmpty {
			if !yield(s.addr, s.value()) {
				return
			}
		}
	}
}

// CopyFrom makes m an independent copy of src, reusing m's own table when
// it is large enough. Later stores to either image never show in the other.
func (m *Memory) CopyFrom(src *Memory) {
	if m.shared || cap(m.slots) < len(src.slots) {
		m.slots = make([]memSlot, len(src.slots))
		m.shared = false
	}
	m.slots = m.slots[:len(src.slots)]
	copy(m.slots, src.slots)
	m.shift = src.shift
	m.n = src.n
}

// Refill makes m an independent copy of src, like CopyFrom, for a scratch
// image refilled from one source after another: once a run on m has grown
// its table, m keeps the room, and takes src's words into a table of twice
// src's size by rehashing, so later runs that define no more words than
// that allocate nothing. Twice and no more: a refill clears the whole
// table, and one run that defined thousands of words must not make every
// later refill pay for them.
func (m *Memory) Refill(src *Memory) {
	size := len(src.slots)
	if !m.shared && size > 0 && 2*size <= cap(m.slots) {
		size *= 2
	}
	if size == len(src.slots) {
		m.CopyFrom(src)
		return
	}
	m.slots = m.slots[:size]
	clear(m.slots)
	m.n = src.n
	m.rehash(src.slots)
}

// Equal reports whether m and o define the same words with the same values.
// Images with one insertion history (a CopyFrom and its source, when neither
// has defined a new word since) compare slot for slot.
func (m *Memory) Equal(o *Memory) bool {
	if m.n != o.n {
		return false
	}
	if slices.Equal(m.slots, o.slots) {
		return true
	}
	equal := true
	m.Range(func(addr int64, v Value) bool {
		w, ok := o.Load(addr)
		equal = ok && w.Equal(v)
		return equal
	})
	return equal
}

// Clone returns an image holding the same words that shares m's table
// copy-on-write: the first Store into either side copies the table first.
func (m *Memory) Clone() Memory {
	m.shared = true
	return *m
}
