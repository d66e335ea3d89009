package faults

import (
	"strings"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

const sampleSrc = `
main:	li $1 10
	read $2
	add $3 $1 $2
	st $3 100($0)
	ld $4 100($0)
	beqi $4 0 done
	nop
	jal fn
done:	print $4
	halt
fn:	jr $31
`

func sampleProgram(t *testing.T) *isa.Program {
	t.Helper()
	return asm.MustParse("sample", sampleSrc).Program
}

func freshState(t *testing.T, prog *isa.Program) *symexec.State {
	t.Helper()
	return symexec.NewState(prog, nil, []int64{5}, symexec.DefaultOptions())
}

func TestRegisterInjectionsSourcesOnly(t *testing.T) {
	prog := sampleProgram(t)
	injs := RegisterInjections(prog, true)
	for _, inj := range injs {
		if inj.Class != ClassRegister {
			t.Fatalf("class %v", inj.Class)
		}
		srcs := prog.At(inj.PC).SrcRegs()
		found := false
		for _, r := range srcs {
			if isa.RegLoc(r) == inj.Loc {
				found = true
			}
		}
		if !found {
			t.Errorf("injection %v targets a register the instruction does not read", inj)
		}
	}
	// li/read/nop/halt/jal contribute no source registers; $0 bases are
	// excluded: add contributes 2; st 1; ld 0; beqi 1; print 1; jr 1.
	if len(injs) != 6 {
		t.Errorf("%d source injections, want 6", len(injs))
	}
}

func TestRegisterInjectionsExhaustive(t *testing.T) {
	prog := sampleProgram(t)
	injs := RegisterInjections(prog, false)
	if want := prog.Len() * (isa.NumRegs - 1); len(injs) != want {
		t.Errorf("%d exhaustive injections, want %d", len(injs), want)
	}
}

func TestRegisterInjectionsUsed(t *testing.T) {
	prog := sampleProgram(t)
	used := RegisterInjectionsUsed(prog)
	srcOnly := RegisterInjections(prog, true)
	if len(used) <= len(srcOnly) {
		t.Errorf("used (%d) should exceed sources-only (%d)", len(used), len(srcOnly))
	}
}

func TestMemoryInjectionsAtLoads(t *testing.T) {
	prog := sampleProgram(t)
	injs := MemoryInjections(prog)
	if len(injs) != 1 {
		t.Fatalf("%d memory injections, want 1 (one load)", len(injs))
	}
	if !injs[0].DynamicLoadAddr || prog.At(injs[0].PC).Op != isa.OpLd {
		t.Errorf("injection %+v not at the load", injs[0])
	}
}

func TestControlInjections(t *testing.T) {
	prog := sampleProgram(t)
	injs := ControlInjections(prog)
	if len(injs) != prog.Len() {
		t.Fatalf("%d control injections, want %d", len(injs), prog.Len())
	}
	st := freshState(t, prog)
	states, err := injs[0].Apply(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != prog.Len()-1 {
		t.Errorf("PC error fans out to %d states, want %d", len(states), prog.Len()-1)
	}
	seen := map[int]bool{}
	for _, s := range states {
		if s.PC == st.PC {
			t.Error("PC error includes the fault-free continuation")
		}
		seen[s.PC] = true
	}
	if len(seen) != len(states) {
		t.Error("duplicate redirection targets")
	}
}

func TestDecodeInjectionManifestations(t *testing.T) {
	prog := sampleProgram(t)
	st := freshState(t, prog)

	// Changed target: err in original and new destinations.
	inj := Injection{
		Class: ClassDecode, PC: 0, Decode: DecodeChangedTarget,
		Loc: isa.RegLoc(1), NewLoc: isa.RegLoc(7),
	}
	states, err := inj.Apply(st)
	if err != nil || len(states) != 1 {
		t.Fatalf("apply: %v, %d states", err, len(states))
	}
	if !states[0].Regs[1].IsErr() || !states[0].Regs[7].IsErr() {
		t.Error("changed-target manifestation wrong")
	}
	// The two targets carry independent roots (independent wrong values).
	t1, _ := states[0].Sym.Term(isa.RegLoc(1))
	t2, _ := states[0].Sym.Term(isa.RegLoc(7))
	if t1.Root == t2.Root {
		t.Error("changed-target roots aliased")
	}

	// Lost target: err only in the original destination.
	inj = Injection{Class: ClassDecode, PC: 0, Decode: DecodeLostTarget, Loc: isa.RegLoc(1)}
	states, err = inj.Apply(st)
	if err != nil {
		t.Fatal(err)
	}
	if !states[0].Regs[1].IsErr() || states[0].Regs[7].IsErr() {
		t.Error("lost-target manifestation wrong")
	}

	// New target: err only in the new wrong destination (at the nop, the
	// only no-target instruction, @6).
	inj = Injection{Class: ClassDecode, PC: 6, Decode: DecodeNewTarget, NewLoc: isa.RegLoc(9)}
	st2 := st.Clone()
	st2.PC = 6
	states, err = inj.Apply(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !states[0].Regs[9].IsErr() {
		t.Error("new-target manifestation wrong")
	}
}

func TestDecodeEnumerationShape(t *testing.T) {
	prog := sampleProgram(t)
	counts := map[DecodeKind]int{}
	for _, inj := range DecodeInjections(prog) {
		counts[inj.Decode]++
	}
	if counts[DecodeChangedTarget] == 0 || counts[DecodeLostTarget] == 0 || counts[DecodeNewTarget] == 0 {
		t.Errorf("decode kinds missing: %v", counts)
	}
}

func TestInjectionApplyErrors(t *testing.T) {
	prog := sampleProgram(t)
	st := freshState(t, prog)

	// Wrong breakpoint.
	if _, err := (Injection{Class: ClassRegister, PC: 3, Loc: isa.RegLoc(1)}).Apply(st); err == nil {
		t.Error("mispositioned injection accepted")
	}
	// Zero register.
	if _, err := (Injection{Class: ClassRegister, PC: 0, Loc: isa.RegLoc(0)}).Apply(st); err == nil {
		t.Error("$0 injection accepted")
	}
	// Memory class with a register loc.
	if _, err := (Injection{Class: ClassMemory, PC: 0, Loc: isa.RegLoc(1)}).Apply(st); err == nil {
		t.Error("register loc for memory class accepted")
	}
	// Dynamic load address on a non-load.
	if _, err := (Injection{Class: ClassMemory, PC: 0, DynamicLoadAddr: true}).Apply(st); err == nil {
		t.Error("dynamic-load injection at non-load accepted")
	}
	// Decode without a kind.
	if _, err := (Injection{Class: ClassDecode, PC: 0}).Apply(st); err == nil {
		t.Error("decode injection without kind accepted")
	}
}

func TestPermanentInjection(t *testing.T) {
	prog := sampleProgram(t)
	st := freshState(t, prog)
	inj := Injection{Class: ClassRegister, PC: 0, Loc: isa.RegLoc(1), Permanent: true}
	states, err := inj.Apply(st)
	if err != nil {
		t.Fatal(err)
	}
	c := states[0]
	if _, stuck := c.Stuck[isa.RegLoc(1)]; !stuck {
		t.Fatal("permanent injection did not mark the location stuck")
	}
	if !strings.Contains(inj.String(), "permanent") {
		t.Errorf("String() lacks permanent marker: %s", inj)
	}
	// Executing "li $1 10" must NOT clear the stuck fault.
	if !c.StepInPlace() {
		t.Fatal("li refused in-place step")
	}
	if !c.Regs[1].IsErr() {
		t.Error("write to a stuck register overwrote the fault")
	}
}

func TestPermanentVariant(t *testing.T) {
	prog := sampleProgram(t)
	injs := RegisterInjections(prog, true)
	perm := PermanentVariant(injs)
	if len(perm) != len(injs) {
		t.Fatal("length changed")
	}
	for i := range perm {
		if !perm[i].Permanent {
			t.Fatal("flag not set")
		}
		if injs[i].Permanent {
			t.Fatal("original mutated")
		}
	}
}

func TestForClass(t *testing.T) {
	prog := sampleProgram(t)
	for _, c := range []Class{ClassRegister, ClassMemory, ClassControl, ClassDecode} {
		if len(ForClass(c, prog)) == 0 {
			t.Errorf("ForClass(%v) empty", c)
		}
	}
	if ForClass(Class(99), prog) != nil {
		t.Error("unknown class returned injections")
	}
}

func TestClassAndKindStrings(t *testing.T) {
	for _, c := range []Class{ClassRegister, ClassMemory, ClassControl, ClassDecode} {
		if strings.HasPrefix(c.String(), "class(") {
			t.Errorf("class %d lacks a name", int(c))
		}
	}
	for _, k := range []DecodeKind{DecodeChangedTarget, DecodeNewTarget, DecodeLostTarget} {
		if strings.HasPrefix(k.String(), "decode(") {
			t.Errorf("kind %d lacks a name", int(k))
		}
	}
}

func TestStaticMemoryInjections(t *testing.T) {
	injs := StaticMemoryInjections([]int{1, 3}, []int64{100, 200, 300})
	if len(injs) != 6 {
		t.Fatalf("%d injections, want 6", len(injs))
	}
	for _, inj := range injs {
		if inj.Class != ClassMemory || !inj.Loc.IsMem || inj.DynamicLoadAddr {
			t.Errorf("bad static memory injection %+v", inj)
		}
	}
	prog := sampleProgram(t)
	st := freshState(t, prog)
	st.PC = 1
	states, err := (Injection{Class: ClassMemory, PC: 1, Loc: isa.MemLoc(100)}).Apply(st)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := states[0].Mem.Load(100); !ok || !v.IsErr() {
		t.Error("static memory injection did not place err")
	}
}

func TestControlInjectionStrings(t *testing.T) {
	inj := Injection{Class: ClassControl, PC: 3}
	if !strings.Contains(inj.String(), "control error") {
		t.Errorf("String() = %q", inj)
	}
	mem := Injection{Class: ClassMemory, PC: 2, DynamicLoadAddr: true}
	if !strings.Contains(mem.String(), "loaded at") {
		t.Errorf("String() = %q", mem)
	}
	dec := Injection{Class: ClassDecode, PC: 1, Decode: DecodeLostTarget, Loc: isa.RegLoc(4)}
	if !strings.Contains(dec.String(), "lost-target") {
		t.Errorf("String() = %q", dec)
	}
}

// TestEnumerationsNeverDuplicateSites asserts every register enumeration
// yields each (PC, location, occurrence) site at most once, including over
// instructions whose operands alias the same register — a duplicate would
// double-charge the site's exploration against study budgets and skew every
// per-injection tally.
func TestEnumerationsNeverDuplicateSites(t *testing.T) {
	aliased := asm.MustParse("aliased", `
main:	read $1
	add $1 $1 $1
	mov $2 $2
	st $2 8($2)
	print $1
	halt
`).Program
	for _, tc := range []struct {
		name string
		injs []Injection
	}{
		{"used/sample", RegisterInjectionsUsed(sampleProgram(t))},
		{"used/aliased", RegisterInjectionsUsed(aliased)},
		{"sources/aliased", RegisterInjections(aliased, true)},
		{"exhaustive/aliased", RegisterInjections(aliased, false)},
	} {
		seen := map[Injection]bool{}
		for _, inj := range tc.injs {
			if seen[inj] {
				t.Errorf("%s: duplicate injection site %s", tc.name, inj)
			}
			seen[inj] = true
		}
		if len(tc.injs) == 0 {
			t.Errorf("%s: empty enumeration", tc.name)
		}
	}
}
