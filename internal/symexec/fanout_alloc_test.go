package symexec

import (
	"testing"

	"symplfied/internal/apps/tcas"
	"symplfied/internal/isa"
)

// TestJrFanoutAllocsPerSuccessor bounds the cost of the paper's catastrophic
// tcas injection: err in $31 at Non_Crossing_Biased_Climb's return forks one
// successor per code location. Each successor may cost its clone, its store
// copy, the one constraint pinning the target and its trace cells, but no
// formatted text and no whole-store concretization sweep.
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
	if perSucc > 10 {
		t.Errorf("%.2f allocs per successor, want at most 10", perSucc)
	}
}
