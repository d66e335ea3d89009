package symexec

import (
	"testing"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/isa"
)

// TestJrFanoutAllocsPerSuccessor bounds the cost of the paper's catastrophic
// tcas injection: err in $31 at Non_Crossing_Biased_Climb's return forks one
// successor per code location. Each successor may cost its clone, its store
// copy, the one constraint pinning the target and its trace cells, but no
// formatted text, no whole-store concretization sweep and no copy of the
// memory image.
func TestJrFanoutAllocsPerSuccessor(t *testing.T) {
	prog := tcas.Program()
	jrPC, err := tcas.ReturnJrPC(prog, "Non_Crossing_Biased_Climb")
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(prog, nil, tcas.UpwardInput().Slice(), DefaultOptions())
	for s.PC != jrPC {
		if !s.Running() || !s.StepInPlace() {
			t.Fatalf("fault-free run stopped at pc %d before the return", s.PC)
		}
	}
	s.Inject(isa.RegLoc(isa.RegRA))
	n := len(s.Successors())
	if n < 100 {
		t.Fatalf("%d successors, want the whole-program fan-out", n)
	}
	allocs := testing.AllocsPerRun(20, func() { s.Successors() })
	perSucc := allocs / float64(n)
	t.Logf("%d successors, %.0f allocs, %.2f per successor", n, allocs, perSucc)
	if perSucc > 6 {
		t.Errorf("%.2f allocs per successor, want at most 6", perSucc)
	}
}

// TestStoreFanoutAllocsPerSuccessor bounds the memory sub-model's fan-out:
// err in the stack pointer $29 just before replace's amatch stores through it
// ("st $5 2($29)") forks one successor per defined word the store may hit,
// plus the fresh-location case. Each successor may cost its clone, its copy
// of the memory image and of the constraints, the one constraint pinning the
// address and its trace cells.
func TestStoreFanoutAllocsPerSuccessor(t *testing.T) {
	prog := replace.Program()
	pc := prog.Labels["AM_loop"]
	for pc < prog.Len() && (prog.At(pc).Op != isa.OpSt || prog.At(pc).Rs != isa.RegSP) {
		pc++
	}
	if pc == prog.Len() {
		t.Fatal("no store through $29 after AM_loop")
	}
	s := NewState(prog, nil, replace.Input("[a-c]x*", "<&>", "axx b cx"), DefaultOptions())
	for s.PC != pc {
		if !s.Running() || !s.StepInPlace() {
			t.Fatalf("fault-free run stopped at pc %d before the store", s.PC)
		}
	}
	s.Inject(isa.RegLoc(isa.RegSP))
	n := len(s.Successors())
	if n < 40 {
		t.Fatalf("%d successors, want one per defined word", n)
	}
	allocs := testing.AllocsPerRun(20, func() { s.Successors() })
	perSucc := allocs / float64(n)
	t.Logf("%d successors, %.0f allocs, %.2f per successor", n, allocs, perSucc)
	if perSucc > 7 {
		t.Errorf("%.2f allocs per successor, want at most 7", perSucc)
	}
}
