package machine

import (
	"math"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
)

// TestMemUndefinedLoadRaises: a load from a never-stored word raises, also
// from a grown table and from a wild address an err-free value produced.
func TestMemUndefinedLoadRaises(t *testing.T) {
	u := asm.MustParse("t", `
	li $1 0
loop:	st $1 0($1)
	addi $1 $1 1
	bnei $1 100 loop
	ld $2 0($1)
	halt
`)
	m := New(u.Program, nil, Options{})
	res := m.Run()
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcIllegalAddr {
		t.Fatalf("load past the stored words: %v (%v)", res.Status, res.Exception)
	}
	m = New(u.Program, nil, Options{})
	m.RunUntil(4, 1) // the ld
	m.SetReg(1, isa.Int(math.MinInt64))
	if res := m.Run(); res.Status != StatusExcepted || res.Exception.Kind != isa.ExcIllegalAddr {
		t.Fatalf("load from a wild address: %v (%v)", res.Status, res.Exception)
	}
}

// TestRestoreIsolatesSnapshot: writes to a restored machine — registers,
// memory (including growth), output — never reach the snapshot it was
// restored from, and restoring again brings the snapshot's state back.
func TestRestoreIsolatesSnapshot(t *testing.T) {
	u := asm.MustParse("t", `
	li $1 7
	st $1 100($0)
	print $1
	li $2 0
loop:	st $2 200($2)
	addi $2 $2 1
	bnei $2 300 loop
	print $2
	halt
`)
	snap := New(u.Program, nil, Options{})
	if !snap.RunUntil(3, 1) {
		t.Fatal("breakpoint not reached")
	}
	var want isa.Memory
	snap.CopyMem(&want)
	var m Machine
	for round := 0; round < 2; round++ {
		m.Restore(snap)
		m.SetReg(1, isa.Int(-3))
		m.SetMem(100, isa.Err())
		if res := m.Run(); res.Status != StatusHalted || RenderOutput(res.Output) != "7300" {
			t.Fatalf("round %d: restored run %v, output %q", round, res.Status, RenderOutput(res.Output))
		}
	}
	var got isa.Memory
	snap.CopyMem(&got)
	if v, _ := got.Load(100); got.Len() != want.Len() || !v.Equal(isa.Int(7)) {
		t.Errorf("snapshot memory changed: %d words, *(100) = %v; want %d words, 7", got.Len(), v, want.Len())
	}
	if v := snap.Reg(1); !v.Equal(isa.Int(7)) {
		t.Errorf("snapshot $1 = %v, want 7", v)
	}
	if got := RenderOutput(snap.Output()); got != "7" || snap.PC() != 3 || snap.Status() != StatusRunning {
		t.Errorf("snapshot moved: output %q, pc %d, status %v", got, snap.PC(), snap.Status())
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Restore(snap) }); allocs != 0 {
		t.Errorf("Restore into a grown machine allocated %.0f times", allocs)
	}
}

// TestTraceTail: the machine keeps the last TraceTailLen fetched program
// counters, oldest first, including a faulting fetch.
func TestTraceTail(t *testing.T) {
	u := asm.MustParse("t", "\tli $1 3\n\tjr $1\n\tnop\n")
	m := New(u.Program, nil, Options{})
	if m.TraceTail() != nil {
		t.Fatal("trace tail before the first step")
	}
	m.Run()
	if got := m.TraceTail(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("trace tail %v, want [0 1 3]", got)
	}
	loop := asm.MustParse("loop", "top:\taddi $1 $1 1\n\tjmp top\n")
	m = New(loop.Program, nil, Options{Watchdog: 101})
	m.Run()
	got := m.TraceTail()
	if len(got) != TraceTailLen || got[0] != 1 || got[len(got)-1] != 0 {
		t.Errorf("trace tail %v: want %d entries from pc 1 to pc 0", got, TraceTailLen)
	}
}
