package symexec

import (
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
)

func stateFor(t *testing.T, src string, input []int64) *State {
	t.Helper()
	u := asm.MustParse("t", src)
	return NewState(u.Program, u.Detectors, input, DefaultOptions())
}

// stepN executes exactly n deterministic steps, positioning the state at
// the intended injection point.
func stepN(t *testing.T, s *State, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !s.Running() || !s.StepInPlace() {
			t.Fatalf("step %d of %d unavailable (pc %d)", i, n, s.PC)
		}
	}
}

// exploreAll exhaustively explores from s and returns the terminal states.
func exploreAll(t *testing.T, s *State) []*State {
	t.Helper()
	var terminals []*State
	frontier := []*State{s}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for cur.Running() && cur.StepInPlace() {
		}
		if !cur.Running() {
			terminals = append(terminals, cur)
			continue
		}
		frontier = append(frontier, cur.Successors()...)
	}
	return terminals
}

// TestComparisonForkConstraints: a branch on err forks into exactly two
// states with complementary constraints (paper: "rl isEqual(I, err) => true
// . rl isEqual(I, err) => false" plus constraint remembering).
func TestComparisonForkConstraints(t *testing.T) {
	s := stateFor(t, `
	read $1
	beqi $1 7 yes
	prints "no"
	halt
yes:	prints "yes"
	halt
`, []int64{0})
	stepN(t, s, 1) // read
	s.Inject(isa.RegLoc(1))
	terminals := exploreAll(t, s)
	if len(terminals) != 2 {
		t.Fatalf("%d terminals, want 2", len(terminals))
	}
	byOut := map[string]*State{}
	for _, f := range terminals {
		byOut[f.OutputString()] = f
	}
	yes, no := byOut["yes"], byOut["no"]
	if yes == nil || no == nil {
		t.Fatalf("outputs %v", byOut)
	}
	// The true case pins the root to 7 and concretizes the register.
	if c := yes.Sym.RootConstraints(0); !c.Admits(7) || c.Admits(8) {
		t.Errorf("true-case constraints %s", c)
	}
	if yes.Regs[1].IsErr() {
		t.Error("true case did not concretize $1 after the equality pin")
	}
	// The false case remembers the disequality.
	if c := no.Sym.RootConstraints(0); c.Admits(7) || !c.Admits(8) {
		t.Errorf("false-case constraints %s", c)
	}
}

// TestUnsatisfiableForkPruned: once the path knows $1 > 10, a subsequent
// "== 3" fork keeps only the false branch (the paper's false-positive
// elimination).
func TestUnsatisfiableForkPruned(t *testing.T) {
	s := stateFor(t, `
	read $1
	setgt $2 $1 10
	beqi $2 0 small
	beqi $1 3 three
	prints "big"
	halt
three:	prints "three"
	halt
small:	prints "small"
	halt
`, []int64{0})
	stepN(t, s, 1) // read
	s.Inject(isa.RegLoc(1))
	terminals := exploreAll(t, s)
	outs := map[string]bool{}
	for _, f := range terminals {
		outs[f.OutputString()] = true
	}
	if outs["three"] {
		t.Errorf("infeasible path (err > 10 and err == 3) not pruned: %v", outs)
	}
	if !outs["big"] || !outs["small"] {
		t.Errorf("feasible paths missing: %v", outs)
	}
}

// TestDivByErrForks: I / err forks into a div-zero exception (divisor == 0)
// and an err result (divisor != 0), per the paper's equations.
func TestDivByErrForks(t *testing.T) {
	s := stateFor(t, `
	read $1
	li $2 10
	div $3 $2 $1
	print $3
	halt
`, []int64{1})
	stepN(t, s, 2) // read, li
	s.Inject(isa.RegLoc(1))
	terminals := exploreAll(t, s)
	if len(terminals) != 2 {
		t.Fatalf("%d terminals, want 2", len(terminals))
	}
	var crash, normal *State
	for _, f := range terminals {
		switch f.Outcome() {
		case OutcomeCrash:
			crash = f
		case OutcomeNormal:
			normal = f
		}
	}
	if crash == nil || crash.Exc.Kind != isa.ExcDivZero {
		t.Fatalf("missing div-zero case: %v", crash)
	}
	if c := crash.Sym.RootConstraints(0); !c.Admits(0) || c.Admits(1) {
		t.Errorf("div-zero constraints %s", c)
	}
	if normal == nil || !normal.OutputContainsErr() {
		t.Fatalf("missing err-result case")
	}
	if c := normal.Sym.RootConstraints(0); c.Admits(0) {
		t.Errorf("nonzero-divisor constraints %s", c)
	}
}

// TestLoadThroughErrPointer: the load forks over every defined memory word
// (with the base register pinned per target) plus the illegal-address case,
// per the paper's memory-handling sub-model.
func TestLoadThroughErrPointer(t *testing.T) {
	s := stateFor(t, `
	li $1 11
	st $1 100($0)
	li $1 22
	st $1 200($0)
	read $2
	ld $3 0($2)
	print $3
	halt
`, []int64{0})
	stepN(t, s, 5) // li, st, li, st, read
	s.Inject(isa.RegLoc(2))
	terminals := exploreAll(t, s)

	outs := map[string]*State{}
	crashes := 0
	for _, f := range terminals {
		if f.Outcome() == OutcomeCrash {
			crashes++
			if f.Exc.Kind != isa.ExcIllegalAddr {
				t.Errorf("crash kind %v", f.Exc.Kind)
			}
			// The exception case excludes both defined addresses.
			c := f.Sym.RootConstraints(0)
			if c.Admits(100) || c.Admits(200) {
				t.Errorf("exception case admits a defined address: %s", c)
			}
			continue
		}
		outs[f.OutputString()] = f
	}
	if crashes != 1 {
		t.Errorf("%d illegal-address cases, want 1", crashes)
	}
	if len(outs) != 2 || outs["11"] == nil || outs["22"] == nil {
		t.Fatalf("resolved loads %v", outs)
	}
	if c := outs["11"].Sym.RootConstraints(0); !c.Admits(100) || c.Admits(200) {
		t.Errorf("load@100 constraints %s", c)
	}
}

// TestStoreThroughErrPointer: the store forks over every defined word plus
// the fresh-location case (memory unchanged at defined addresses).
func TestStoreThroughErrPointer(t *testing.T) {
	s := stateFor(t, `
	li $1 5
	st $1 100($0)
	read $2
	li $3 9
	st $3 0($2)
	ld $4 100($0)
	print $4
	halt
`, []int64{0})
	stepN(t, s, 3) // li, st, read
	s.Inject(isa.RegLoc(2))
	terminals := exploreAll(t, s)
	outs := map[string]int{}
	for _, f := range terminals {
		if f.Outcome() != OutcomeNormal {
			t.Fatalf("unexpected outcome %v (%v)", f.Outcome(), f.Exc)
		}
		outs[f.OutputString()]++
	}
	// Overwrite case prints 9; fresh-location case prints the original 5.
	if outs["9"] != 1 || outs["5"] != 1 {
		t.Fatalf("outputs %v, want one 9 and one 5", outs)
	}
}

// TestJrErrTargetForks: jr through err enumerates every valid code location
// (pinning the root) plus the illegal-instruction case.
func TestJrErrTargetForks(t *testing.T) {
	s := stateFor(t, `
	read $1
	jr $1
	halt
	halt
`, []int64{0})
	stepN(t, s, 1) // read
	s.Inject(isa.RegLoc(1))
	succs := s.Successors()
	if len(succs) != 5 { // 4 code locations + illegal instruction
		t.Fatalf("%d successors, want 5", len(succs))
	}
	excs := 0
	for _, c := range succs {
		if !c.Running() {
			excs++
			if c.Exc.Kind != isa.ExcIllegalInstr {
				t.Errorf("exception kind %v", c.Exc.Kind)
			}
			continue
		}
		tm, ok := c.Sym.Term(isa.RegLoc(1))
		if !ok {
			// The register may have been concretized by the equality pin.
			if c.Regs[1].IsErr() {
				t.Error("landing state kept unpinned err in $1")
			}
			continue
		}
		if v, exact := c.Sym.ExactValue(tm); !exact || int(v) != c.PC {
			t.Errorf("landing at %d constrained to %v", c.PC, tm)
		}
	}
	if excs != 1 {
		t.Errorf("%d exception successors, want 1", excs)
	}
}

// TestControlTargetCapTruncates: the MaxControlTargets cap limits fan-out
// and marks states truncated (no silent under-counting).
func TestControlTargetCapTruncates(t *testing.T) {
	u := asm.MustParse("t", `
	read $1
	jr $1
	halt
	halt
	halt
	halt
`)
	opts := DefaultOptions()
	opts.MaxControlTargets = 2
	s := NewState(u.Program, nil, []int64{0}, opts)
	stepN(t, s, 1) // read
	s.Inject(isa.RegLoc(1))
	succs := s.Successors()
	if len(succs) != 3 { // 2 capped targets + exception
		t.Fatalf("%d successors, want 3", len(succs))
	}
	for _, c := range succs {
		if !c.Truncated {
			t.Error("capped successor not marked truncated")
		}
	}
}

// TestSymbolicMemMode: with SymbolicMem, an erroneous load returns a fresh
// err instead of enumerating memory.
func TestSymbolicMemMode(t *testing.T) {
	u := asm.MustParse("t", `
	li $1 5
	st $1 100($0)
	read $2
	ld $3 0($2)
	print $3
	halt
`)
	opts := DefaultOptions()
	opts.SymbolicMem = true
	s := NewState(u.Program, nil, []int64{0}, opts)
	stepN(t, s, 3) // li, st, read
	s.Inject(isa.RegLoc(2))
	succs := s.Successors()
	if len(succs) != 2 { // exception + symbolic result
		t.Fatalf("%d successors, want 2", len(succs))
	}
	symbolicSeen := false
	for _, c := range succs {
		if c.Running() && c.Regs[3].IsErr() {
			symbolicSeen = true
		}
	}
	if !symbolicSeen {
		t.Error("symbolic-result successor missing")
	}
}

// TestReadErrInput: err values in the input stream propagate to registers.
func TestReadErrInput(t *testing.T) {
	u := asm.MustParse("t", "\tread $1\n\tprint $1\n\thalt\n")
	s := NewState(u.Program, nil, nil, DefaultOptions())
	s.In = []isa.Value{isa.Err()}
	terminals := exploreAll(t, s)
	if len(terminals) != 1 || !terminals[0].OutputContainsErr() {
		t.Fatalf("terminals %v", terminals)
	}
}

// TestOutcomeClassification covers the Outcome mapping.
func TestOutcomeClassification(t *testing.T) {
	cases := []struct {
		src  string
		want Outcome
	}{
		{"\thalt\n", OutcomeNormal},
		{"\tthrow \"x\"\n", OutcomeCrash},
		{"\tld $1 9($0)\n\thalt\n", OutcomeCrash},
		{"loop:\tjmp loop\n", OutcomeHang},
		{"\tdet(1, $1, ==, 5)\n\tcheck #1\n\thalt\n", OutcomeDetected},
	}
	for _, c := range cases {
		u := asm.MustParse("t", c.src)
		opts := DefaultOptions()
		opts.Watchdog = 50
		s := NewState(u.Program, u.Detectors, nil, opts)
		terminals := exploreAll(t, s)
		if len(terminals) != 1 {
			t.Fatalf("%q: %d terminals", c.src, len(terminals))
		}
		if got := terminals[0].Outcome(); got != c.want {
			t.Errorf("%q: outcome %v, want %v", c.src, got, c.want)
		}
	}
	running := NewState(asm.MustParse("t", "\thalt\n").Program, nil, nil, DefaultOptions())
	if running.Outcome() != OutcomeRunning {
		t.Error("running state misclassified")
	}
}

// TestFromMachineTransfersState: lifting a concrete machine mid-run
// preserves registers, memory, output, and step count.
func TestFromMachineTransfersState(t *testing.T) {
	u := asm.MustParse("t", `
	li $1 7
	st $1 50($0)
	prints "pre"
	read $2
	print $2
	halt
`)
	m := machine.New(u.Program, []int64{9}, machine.Options{})
	if !m.RunUntil(3, 1) {
		t.Fatal("breakpoint not reached")
	}
	st := FromMachine(m, u.Detectors, DefaultOptions())
	if st.PC != 3 || st.Steps != m.Steps() {
		t.Fatalf("PC/steps not transferred: %d/%d", st.PC, st.Steps)
	}
	if v, ok := st.Mem.Load(50); !ok || !v.Equal(isa.Int(7)) {
		t.Fatal("memory not transferred")
	}
	if len(st.In) != 1 || !st.In[0].Equal(isa.Int(9)) || st.InPos != 0 {
		t.Fatalf("unread input not transferred: %v at %d", st.In, st.InPos)
	}
	// The state's memory is a copy: the machine runs on without touching it.
	m.SetMem(50, isa.Int(-1))
	m.SetMem(51, isa.Int(1))
	if v, _ := st.Mem.Load(50); !v.Equal(isa.Int(7)) || st.Mem.Len() != 1 {
		t.Fatalf("machine stores show in the lifted state: *(50) = %v, %d words", v, st.Mem.Len())
	}
	terminals := exploreAll(t, st)
	if len(terminals) != 1 || terminals[0].OutputString() != "pre9" {
		t.Fatalf("continuation wrong: %q", terminals[0].OutputString())
	}
}

// TestMemTargetCapTruncates: MaxMemTargets bounds erroneous-pointer fan-out
// for loads and stores, marking survivors truncated.
func TestMemTargetCapTruncates(t *testing.T) {
	src := `
	li $1 1
	st $1 100($0)
	li $1 2
	st $1 200($0)
	li $1 3
	st $1 300($0)
	read $2
	ld $3 0($2)
	st $3 0($2)
	halt
`
	u := asm.MustParse("t", src)
	opts := DefaultOptions()
	opts.MaxMemTargets = 2
	s := NewState(u.Program, nil, []int64{0}, opts)
	stepN(t, s, 7) // 3x(li,st) + read
	s.Inject(isa.RegLoc(2))

	succs := s.Successors() // the capped load
	if len(succs) != 3 {    // 2 capped targets + exception
		t.Fatalf("load: %d successors, want 3", len(succs))
	}
	for _, c := range succs {
		if !c.Truncated {
			t.Error("capped load successor not marked truncated")
		}
	}
}

// TestStoreThroughErrPointerFreshOnly: when every defined address is ruled
// out by constraints, only the fresh-location successor survives.
func TestStoreThroughErrPointerFreshOnly(t *testing.T) {
	src := `
	li $1 5
	st $1 100($0)
	read $2
	setgt $3 $2 1000
	beqi $3 0 out
	st $1 0($2)
out:	halt
`
	u := asm.MustParse("t", src)
	s := NewState(u.Program, nil, []int64{0}, DefaultOptions())
	stepN(t, s, 3)
	s.Inject(isa.RegLoc(2))
	terminals := exploreAll(t, s)
	// Paths: big branch (err > 1000): the store cannot hit address 100
	// (pruned), so only the fresh-location case continues; small branch
	// skips the store entirely.
	for _, f := range terminals {
		if f.Outcome() != OutcomeNormal {
			t.Fatalf("outcome %v (%v)", f.Outcome(), f.Exc)
		}
		if v, ok := f.Mem.Load(100); !ok || !v.Equal(isa.Int(5)) {
			t.Errorf("defined word overwritten despite contradiction: %v", v)
		}
	}
	if len(terminals) != 2 {
		t.Fatalf("%d terminals, want 2", len(terminals))
	}
}

// TestRelationalPruning: comparisons between two distinct erroneous
// quantities accumulate difference constraints, so a path that assumes
// x < y and later x > y over the same unmodified values is pruned — a
// refinement over the paper's model, which leaves err-vs-err forks wholly
// unconstrained.
func TestRelationalPruning(t *testing.T) {
	s := stateFor(t, `
	read $1
	read $2
	setlt $3 $1 $2
	beqi $3 0 other
	setgt $4 $1 $2
	beqi $4 0 consistent
	prints "impossible"
	halt
consistent:
	prints "lt"
	halt
other:
	prints "ge"
	halt
`, []int64{0, 0})
	stepN(t, s, 2) // both reads
	s.Inject(isa.RegLoc(1))
	s.Inject(isa.RegLoc(2))
	terminals := exploreAll(t, s)
	outs := map[string]int{}
	for _, f := range terminals {
		outs[f.OutputString()]++
	}
	if outs["impossible"] != 0 {
		t.Errorf("contradictory path (x<y && x>y) not pruned: %v", outs)
	}
	if outs["lt"] == 0 || outs["ge"] == 0 {
		t.Errorf("feasible relational paths missing: %v", outs)
	}
}

// TestRelationalEqualityPropagation: assuming x == y makes later x < y
// forks collapse to false.
func TestRelationalEqualityPropagation(t *testing.T) {
	s := stateFor(t, `
	read $1
	read $2
	beq $1 $2 equal
	prints "ne"
	halt
equal:
	setlt $3 $1 $2
	beqi $3 0 ok
	prints "broken"
	halt
ok:
	prints "eq"
	halt
`, []int64{0, 0})
	stepN(t, s, 2)
	s.Inject(isa.RegLoc(1))
	s.Inject(isa.RegLoc(2))
	terminals := exploreAll(t, s)
	outs := map[string]int{}
	for _, f := range terminals {
		outs[f.OutputString()]++
	}
	if outs["broken"] != 0 {
		t.Errorf("x == y then x < y not pruned: %v", outs)
	}
	if outs["eq"] == 0 || outs["ne"] == 0 {
		t.Errorf("feasible paths missing: %v", outs)
	}
}
