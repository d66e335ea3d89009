package symexec

import (
	"fmt"
	"testing"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/asm"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
)

// TestStepInPlaceRefusesForks ensures the fast path declines exactly where
// nondeterminism begins and leaves the state unmodified.
func TestStepInPlaceRefusesForks(t *testing.T) {
	u := asm.MustParse("forky", `
	read $8
	beqi $8 0 zero
	halt
zero:	halt
`)
	st := NewState(u.Program, u.Detectors, []int64{1}, DefaultOptions())
	if !st.StepInPlace() {
		t.Fatal("read refused in-place step")
	}
	// Make the branch operand erroneous: the branch must refuse.
	st.Inject(isa.RegLoc(8))
	before := st.Key()
	if st.StepInPlace() {
		t.Fatal("branch on err executed in place")
	}
	if st.Key() != before {
		t.Fatal("refused step mutated the state")
	}
	succs := st.Successors()
	if len(succs) != 2 {
		t.Fatalf("branch on err: %d successors, want 2", len(succs))
	}
}

// termInvariant reports a violation of the store invariants the executor
// relies on: a location holds err exactly when it has a term ($0, which
// always reads 0, may have one), so a state whose store has no term holds no
// err (ErrFree); and no term is over a root whose constraints are exact,
// which lets a constraint concretize only the root it constrained.
func termInvariant(s *State) error {
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if _, ok := s.Sym.Term(isa.RegLoc(r)); s.Regs[r].IsErr() && !ok {
			return fmt.Errorf("pc %d: %s holds err but has no term", s.PC, r)
		}
	}
	var termless error
	s.Mem.Range(func(addr int64, v isa.Value) bool {
		if _, ok := s.Sym.Term(isa.MemLoc(addr)); v.IsErr() && !ok {
			termless = fmt.Errorf("pc %d: *(%d) holds err but has no term", s.PC, addr)
		}
		return termless == nil
	})
	if termless != nil {
		return termless
	}
	for _, loc := range s.Sym.Locs() {
		switch {
		case loc.IsMem:
			if v, ok := s.Mem.Load(loc.Addr); !ok || !v.IsErr() {
				t, _ := s.Sym.Term(loc)
				return fmt.Errorf("pc %d: %s holds %v (defined %v) but has term %v", s.PC, loc, v, ok, t)
			}
		case loc.Reg != isa.RegZero && !s.Regs[loc.Reg].IsErr():
			return fmt.Errorf("pc %d: %s holds %v but has a term", s.PC, loc, s.Regs[loc.Reg])
		}
		// Constraining a root concretizes the locations over it once it is
		// exact, so no term may be over an exact root, unless the term's
		// value overflows int64.
		t, _ := s.Sym.Term(loc)
		if c := s.Sym.RootConstraints(t.Root); c != nil {
			if _, exact := c.Exact(); exact {
				if v, ok := s.Sym.ExactValue(t); ok {
					return fmt.Errorf("pc %d: %s has term %v over exact root e#%d (= %d): %s", s.PC, loc, t, t.Root, v, c)
				}
			}
		}
	}
	return nil
}

// TestTermInvariantInjectedSearch asserts the term invariant after every
// step of injected tcas and replace explorations: a sample of register
// injections, each explored breadth-first to a state cap.
func TestTermInvariantInjectedSearch(t *testing.T) {
	type app struct {
		prog  *isa.Program
		input []int64
	}
	apps := []app{
		{tcas.Program(), tcas.UpwardInput().Slice()},
		{replace.Program(), replace.Input("[a-c]x*", "<&>", "axx b cx")},
	}
	for _, a := range apps {
		checked := 0
		for pc := 0; pc < a.prog.Len(); pc += 7 {
			srcs := a.prog.At(pc).SrcRegs()
			if len(srcs) == 0 {
				continue
			}
			opts := DefaultOptions()
			opts.Watchdog = 4000
			st := NewState(a.prog, nil, a.input, opts)
			for st.Running() && st.PC != pc {
				if !st.StepInPlace() {
					t.Fatalf("%s: fault-free prefix forked at pc %d", a.prog.Name, st.PC)
				}
			}
			if !st.Running() {
				continue
			}
			st.Inject(isa.RegLoc(srcs[0]))
			frontier := []*State{st}
			for states := 0; len(frontier) > 0 && states < 3000; states++ {
				cur := frontier[0]
				frontier = frontier[1:]
				if err := termInvariant(cur); err != nil {
					t.Fatalf("%s, err in %s at @%d: %v", a.prog.Name, srcs[0], pc, err)
				}
				checked++
				if !cur.Running() {
					continue
				}
				if cur.StepInPlace() {
					frontier = append(frontier, cur)
					continue
				}
				frontier = append(frontier, cur.Successors()...)
			}
		}
		if checked < 1000 {
			t.Fatalf("%s: only %d states checked", a.prog.Name, checked)
		}
	}
}

// TestUnsupportedOpcodeStepParity: an instruction that lowers to no kind
// raises illegal instruction in StepInPlace, on the concrete machine and
// through RunConcrete alike, counting the step in all three, so a report
// cannot depend on which engine ran it.
func TestUnsupportedOpcodeStepParity(t *testing.T) {
	u := asm.MustParse("invalid", "\tli $1 1\n\tnop\n\thalt\n")
	u.Program.Code()[1].Kind = isa.KindInvalid // no opcode lowers to it
	want := isa.Exception{Kind: isa.ExcIllegalInstr, PC: 1, Detail: "unsupported opcode nop"}

	res := machine.New(u.Program, nil, machine.Options{}).Run()
	if res.Exception == nil || *res.Exception != want || res.Steps != 2 {
		t.Errorf("machine: %+v after %d steps, want %+v after 2", res.Exception, res.Steps, want)
	}
	st := NewState(u.Program, nil, nil, DefaultOptions())
	for st.StepInPlace() {
	}
	if st.Exc == nil || *st.Exc != want || st.Steps != 2 {
		t.Errorf("StepInPlace: %+v after %d steps, want %+v after 2", st.Exc, st.Steps, want)
	}
	ho := NewState(u.Program, nil, nil, DefaultOptions())
	var m machine.Machine
	if n, _ := ho.RunConcrete(&m, 10); n != 2 || ho.Key() != st.Key() || *ho.Exc != *st.Exc ||
		ho.Trace.Render() != st.Trace.Render() {
		t.Errorf("RunConcrete used %d states, want 2, and left %s / %+v, want %s / %+v",
			n, ho.Key(), ho.Exc, st.Key(), st.Exc)
	}
}

// TestSuccessorsPersistent: Successors never mutates its receiver, and its
// successors are independent of it. Every successor of every kindCase is
// stepped to termination (or a step cap) and appended to, with the
// receiver's output sitting in a slice with spare capacity — the case an
// aliased append would corrupt — and the receiver's key must not move.
func TestSuccessorsPersistent(t *testing.T) {
	for _, c := range kindCases {
		s := kindState(t, c)
		out := make([]machine.OutItem, 0, 8)
		s.Out = append(out, machine.OutItem{IsStr: true, Str: "before"})
		before := s.Key()
		for _, succ := range s.Successors() {
			succ.Out = append(succ.Out, machine.OutItem{IsStr: true, Str: "mine"})
			for i := 0; i < 20 && succ.Running(); i++ {
				if !succ.StepInPlace() {
					succ = succ.Successors()[0]
				}
			}
			succ.Out = append(succ.Out, machine.OutItem{Val: isa.Int(9)})
			if s.Key() != before {
				t.Fatalf("%s: stepping a successor moved the receiver:\n%s\n%s", c.name, before, s.Key())
			}
		}
	}
}

// TestCloneOutputIndependent: clones share the output prefix, yet the
// parent and two clones each appending see only their own output.
func TestCloneOutputIndependent(t *testing.T) {
	u := asm.MustParse("out", "\thalt\n")
	p := NewState(u.Program, u.Detectors, nil, DefaultOptions())
	p.Out = append(make([]machine.OutItem, 0, 4), machine.OutItem{IsStr: true, Str: "a"})
	c1, c2 := p.Clone(), p.Clone()
	c1.Out = append(c1.Out, machine.OutItem{IsStr: true, Str: "1"})
	c2.Out = append(c2.Out, machine.OutItem{IsStr: true, Str: "2"})
	p.Out = append(p.Out, machine.OutItem{IsStr: true, Str: "p"})
	c3 := c1.Clone()
	c1.Out = append(c1.Out, machine.OutItem{IsStr: true, Str: "x"})
	c3.Out = append(c3.Out, machine.OutItem{IsStr: true, Str: "y"})
	for _, tc := range []struct {
		st   *State
		want string
	}{{p, "ap"}, {c1, "a1x"}, {c2, "a2"}, {c3, "a1y"}} {
		if got := tc.st.OutputString(); got != tc.want {
			t.Errorf("output %q, want %q", got, tc.want)
		}
	}
}
