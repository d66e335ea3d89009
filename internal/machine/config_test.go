package machine

import (
	"reflect"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
)

// TestSameConfig: two restored copies of one machine are in the same
// configuration until a register, memory word, output item or step tells
// them apart, and a copy that converges again compares equal and runs on to
// the same Result and trace tail.
func TestSameConfig(t *testing.T) {
	u := asm.MustParse("t", `
	li $1 7
	st $1 3($0)
	li $2 1
	print $2
	halt
`)
	base := New(u.Program, []int64{4}, Options{})
	base.RunUntil(2, 1) // before li $2 1
	var a, b Machine
	a.Restore(base)
	b.Restore(base)
	if !a.SameConfig(&b) {
		t.Fatal("restored copies differ")
	}
	b.SetReg(2, isa.Int(9))
	if a.SameConfig(&b) {
		t.Fatal("a register difference went unnoticed")
	}
	a.Step()
	b.Step() // li overwrites the injected value: converged
	if !a.SameConfig(&b) {
		t.Fatal("converged copies differ")
	}
	b.SetMem(3, isa.Int(8))
	if a.SameConfig(&b) {
		t.Fatal("a memory difference went unnoticed")
	}
	b.Restore(&a)
	b.Step()
	if a.SameConfig(&b) {
		t.Fatal("a step and output difference went unnoticed")
	}
	a.Step()
	ra, rb := a.Run(), b.Run()
	if !a.SameConfig(&b) || !reflect.DeepEqual(ra, rb) || !reflect.DeepEqual(a.TraceTail(), b.TraceTail()) {
		t.Errorf("equal configurations ran apart: %+v vs %+v", ra, rb)
	}
}

// TestSameConfigOutputAndTrace: machines that agree on everything but what
// they printed, or but the pcs they fetched, are in different
// configurations.
func TestSameConfigOutputAndTrace(t *testing.T) {
	u := asm.MustParse("t", `
	print $1
	nop
	nop
	halt
`)
	var a, b Machine
	base := New(u.Program, nil, Options{})
	a.Restore(base)
	b.Restore(base)
	b.SetReg(1, isa.Int(9))
	a.Step()
	b.Step()
	b.SetReg(1, isa.Int(0))
	if a.SameConfig(&b) {
		t.Error("an output difference went unnoticed")
	}
	a.Restore(base)
	b.Restore(base)
	a.SetPC(1)
	a.Step()
	a.Step() // fetched 1, 2
	b.SetPC(2)
	b.Step()
	b.SetPC(2)
	b.Step() // fetched 2, 2
	if a.PC() != b.PC() || a.Steps() != b.Steps() || a.SameConfig(&b) {
		t.Error("a trace difference went unnoticed")
	}
}

// TestResultView: the view equals Run's result, and its output is empty,
// not nil, before anything is printed.
func TestResultView(t *testing.T) {
	u := asm.MustParse("t", `
	li $1 5
	print $1
	halt
`)
	m := New(u.Program, nil, Options{})
	if v := m.ResultView(); v.Output == nil || len(v.Output) != 0 {
		t.Fatalf("view before printing: %#v", v.Output)
	}
	res := m.Run()
	v := m.ResultView()
	if !reflect.DeepEqual(v, res) {
		t.Fatalf("view %+v, Run %+v", v, res)
	}
}
