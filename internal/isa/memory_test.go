package isa

import (
	"math"
	"testing"
)

func TestMemExtremeAndNegativeAddresses(t *testing.T) {
	var mem Memory
	addrs := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -1 << 40, 1 << 62}
	for i, a := range addrs {
		mem.Store(a, Int(int64(i)*10))
	}
	mem.Store(-7, Err())
	for i, a := range addrs {
		if v, ok := mem.Load(a); !ok || !v.Equal(Int(int64(i)*10)) {
			t.Errorf("Load(%d) = %v, %v; want %d", a, v, ok, i*10)
		}
	}
	if v, ok := mem.Load(-7); !ok || !v.IsErr() {
		t.Errorf("Load(-7) = %v, %v; want err", v, ok)
	}
	for _, a := range []int64{2, -2, math.MaxInt64 - 1} {
		if _, ok := mem.Load(a); ok {
			t.Errorf("Load(%d) defined; never stored", a)
		}
	}
}

func TestMemGrowthAndOverwrite(t *testing.T) {
	var mem Memory
	const n = 10 * minMemSlots
	for i := int64(0); i < n; i++ {
		mem.Store(i*8-n, Int(i))
	}
	for i := int64(0); i < n; i += 3 {
		mem.Store(i*8-n, Int(-i))
	}
	if mem.Len() != n || len(mem.slots) <= minMemSlots {
		t.Fatalf("%d words in %d slots after %d stores", mem.Len(), len(mem.slots), n)
	}
	for i := int64(0); i < n; i++ {
		want := i
		if i%3 == 0 {
			want = -i
		}
		if v, ok := mem.Load(i*8 - n); !ok || !v.Equal(Int(want)) {
			t.Fatalf("Load(%d) = %v, %v; want %d", i*8-n, v, ok, want)
		}
		if _, ok := mem.Load(i*8 - n + 1); ok {
			t.Fatalf("Load(%d) defined; never stored", i*8-n+1)
		}
	}
	walked := 0
	mem.Range(func(int64, Value) bool { walked++; return true })
	if walked != n {
		t.Errorf("Range visits %d words, want %d", walked, n)
	}
}

// TestMemCloneCopiesOnFirstWrite: a clone reads its parent's table until
// either side stores; the first store copies the table in one allocation,
// rehashing straight into the doubled size when the store grows the table.
// CopyFrom into a clone never writes the shared table.
func TestMemCloneCopiesOnFirstWrite(t *testing.T) {
	var parent Memory
	for a := int64(0); a < 10; a++ {
		parent.Store(a, Int(a))
	}
	child := parent.Clone()
	if &child.slots[0] != &parent.slots[0] {
		t.Fatal("Clone copied the table")
	}
	if allocs := testing.AllocsPerRun(1, func() {
		c := parent.Clone()
		c.Store(3, Err())
	}); allocs != 1 {
		t.Errorf("first store into a clone allocated %.0f times, want 1", allocs)
	}
	child.Store(3, Err())
	if v, _ := parent.Load(3); !v.Equal(Int(3)) {
		t.Errorf("clone store shows in the parent: *(3) = %v", v)
	}
	if v, _ := child.Load(3); !v.IsErr() {
		t.Errorf("clone lost its own store: *(3) = %v", v)
	}

	// A clone whose first store crosses the load factor grows in one step.
	var full Memory
	for a := int64(0); 4*(full.Len()+1) <= 3*minMemSlots; a++ {
		full.Store(a, Int(a))
	}
	if len(full.slots) != minMemSlots {
		t.Fatalf("%d slots before the growing store, want %d", len(full.slots), minMemSlots)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		c := full.Clone()
		c.Store(-1, Int(-1))
	}); allocs != 1 {
		t.Errorf("growing first store into a clone allocated %.0f times, want 1", allocs)
	}
	grown := full.Clone()
	grown.Store(-1, Int(-1))
	if len(grown.slots) != 2*minMemSlots || grown.Len() != full.Len()+1 {
		t.Errorf("grown clone: %d words in %d slots", grown.Len(), len(grown.slots))
	}
	if _, ok := full.Load(-1); ok {
		t.Error("growing clone store shows in the parent")
	}
	// The parent stays copy-on-write: its next store leaves the clones alone.
	parent.Store(4, Int(40))
	if v, _ := child.Load(4); !v.Equal(Int(4)) {
		t.Errorf("parent store shows in the clone: *(4) = %v", v)
	}
	// CopyFrom into a clone replaces the clone's words, not the parent's.
	over := parent.Clone()
	var other Memory
	other.Store(100, Int(1))
	over.CopyFrom(&other)
	if v, ok := parent.Load(3); !ok || !v.Equal(Int(3)) || parent.Len() != 10 {
		t.Errorf("CopyFrom into a clone changed the parent: *(3) = %v, %v with %d words", v, ok, parent.Len())
	}
}

// TestMemRefillKeepsRoom: a scratch image refilled from a small source
// keeps room for the words an earlier run defined beyond it, up to twice the
// source's table, holds exactly the source's words, and never shows its
// stores in the source; a run that defined many more words leaves no larger
// table behind.
func TestMemRefillKeepsRoom(t *testing.T) {
	var src, scratch Memory
	for a := int64(0); a < 10; a++ {
		src.Store(a, Int(a))
	}
	define := func(words int) {
		for a := int64(100); a < 100+int64(words); a++ {
			scratch.Store(a, Int(-a))
		}
	}
	room := 3*len(src.slots)/2 - src.Len() // fills twice src's table to 3/4
	run := func() {
		scratch.Refill(&src)
		define(room)
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("a refilled run that defines no more words allocates %.0f times", allocs)
	}
	scratch.Refill(&src)
	define(20 * minMemSlots)
	scratch.Refill(&src)
	if len(scratch.slots) != 2*len(src.slots) {
		t.Errorf("refill into %d slots, want twice the source's %d", len(scratch.slots), len(src.slots))
	}
	ref := map[int64]Value{}
	src.Range(func(a int64, v Value) bool { ref[a] = v; return true })
	checkImage(t, &scratch, ref)
	scratch.Store(3, Err())
	if v, _ := src.Load(3); !v.Equal(Int(3)) {
		t.Errorf("a store into the refilled image showed in its source: %v", v)
	}
}

// FuzzMemoryImage runs random Store/Load/CopyFrom/Refill/Clone/Grow sequences against a
// map reference. Each three-byte operation picks an image, an address
// (small, negative, or extreme, so probes wrap and collide) and a value.
// After every step each image must agree with its reference at the address
// just written, so a clone's writes never show in its parent and the
// parent's never show in the clone; at the end each image must match its
// reference word for word.
func FuzzMemoryImage(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb})
	long := make([]byte, 600)
	for i := range long {
		long[i] = byte(i*37 + i/7)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		const images = 3
		var mems [images]Memory
		var refs [images]map[int64]Value
		for i := range refs {
			refs[i] = map[int64]Value{}
		}
		addrOf := func(b byte) int64 {
			switch b % 8 {
			case 0:
				return math.MinInt64 + int64(b>>3)
			case 1:
				return math.MaxInt64 - int64(b>>3)
			case 2:
				return -int64(b >> 3)
			case 3:
				return int64(b>>3) << 32
			default:
				return int64(b)
			}
		}
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		for len(ops) >= 3 {
			op, a, v := ops[0], ops[1], ops[2]
			ops = ops[3:]
			i, j := int(op>>2)%images, int(op>>4)%images
			switch op % 4 {
			case 0, 1: // store
				val := Int(int64(int8(v)) * 1001)
				if v%5 == 0 {
					val = Err()
				}
				old, had := refs[i][addrOf(a)]
				if changed := mems[i].Store(addrOf(a), val); changed == (had && old == val) {
					t.Fatalf("Store(%d, %v) over %v (defined %v) reported changed=%v", addrOf(a), val, old, had, changed)
				}
				refs[i][addrOf(a)] = val
				// Bulk stores drive growth, on shared tables too.
				for k := 0; k < int(v%4)*int(a%3); k++ {
					addr := addrOf(a) + int64(k)*int64(v)
					mems[i].Store(addr, Int(int64(k)))
					refs[i][addr] = Int(int64(k))
				}
			case 2: // clone
				if i != j {
					mems[j] = mems[i].Clone()
					refs[j] = copyRef(refs[i])
				}
			case 3: // copy, or refill a scratch image; or grow one
				if i == j {
					mems[i].Grow(int(v))
				} else {
					if v&1 != 0 {
						mems[j].Refill(&mems[i])
					} else {
						mems[j].CopyFrom(&mems[i])
					}
					refs[j] = copyRef(refs[i])
				}
			}
			// The written address is probed in every image, so a store
			// through one image that shows in another fails here.
			for k := range mems {
				probeImage(t, &mems[k], refs[k], addrOf(a))
			}
		}
		for k := range mems {
			checkImage(t, &mems[k], refs[k])
		}
	})
}

// TestMemGrowOnce: after Grow(n), defining n new words reallocates nothing,
// and a clone sharing the table before the growth keeps its words.
func TestMemGrowOnce(t *testing.T) {
	var m Memory
	for a := int64(0); a < 20; a++ {
		m.Store(a, Int(a))
	}
	c := m.Clone()
	m.Grow(300)
	table := &m.slots[0]
	for a := int64(100); a < 400; a++ {
		m.Store(a, Int(-a))
	}
	if &m.slots[0] != table {
		t.Errorf("defining 300 words after Grow(300) grew the table again")
	}
	if v, ok := c.Load(5); c.Len() != 20 || !ok || v != Int(5) {
		t.Errorf("the clone holds %d words, 5 = %v", c.Len(), v)
	}
	if v, ok := m.Load(5); m.Len() != 320 || !ok || v != Int(5) {
		t.Errorf("the grown image holds %d words, 5 = %v", m.Len(), v)
	}
}

func copyRef(m map[int64]Value) map[int64]Value {
	out := make(map[int64]Value, len(m))
	for a, v := range m {
		out[a] = v
	}
	return out
}

// checkImage compares an image with its reference: size, every word, and a
// walk that visits each word once.
func checkImage(t *testing.T, m *Memory, ref map[int64]Value) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	seen := 0
	m.Range(func(a int64, v Value) bool {
		if w, ok := ref[a]; !ok || !w.Equal(v) {
			t.Fatalf("Range yields *(%d) = %v; reference %v, %v", a, v, w, ok)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visits %d words, want %d", seen, len(ref))
	}
	for a, w := range ref {
		if v, ok := m.Load(a); !ok || !v.Equal(w) {
			t.Fatalf("Load(%d) = %v, %v; want %v", a, v, ok, w)
		}
	}
}

// probeImage compares an image's size and the words at and around addr with
// its reference.
func probeImage(t *testing.T, m *Memory, ref map[int64]Value, addr int64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for _, a := range []int64{addr, addr + 1, ^addr} {
		w, want := ref[a]
		if v, ok := m.Load(a); ok != want || (ok && !v.Equal(w)) {
			t.Fatalf("Load(%d) = %v, %v; want %v, %v", a, v, ok, w, want)
		}
	}
}
