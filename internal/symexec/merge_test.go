package symexec

import (
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/detector"
	"symplfied/internal/isa"
)

// TestShareableStepIsInvisible pins the classifier's contract over every
// state of a real search: whenever ShareableStep says true, the step must be
// deterministic (StepInPlace succeeds), non-terminal, append no trace event,
// and leave the symbolic store untouched — the exact conditions under which
// the merged explorer may execute it once for all fused worlds.
func TestShareableStepIsInvisible(t *testing.T) {
	prog, dets := factorial.WithDetectors()
	for reg := isa.Reg(1); reg < 6; reg++ {
		st := NewState(prog, dets, []int64{5}, DefaultOptions())
		st.Opts.Watchdog = 400
		st.Inject(isa.RegLoc(reg))

		frontier := []*State{st}
		checked, shareable := 0, 0
		for len(frontier) > 0 && checked < 5000 {
			cur := frontier[0]
			frontier = frontier[1:]
			for cur.Running() && checked < 5000 {
				checked++
				if cur.ShareableStep() && cur.Steps < cur.Opts.Watchdog {
					shareable++
					symKey := cur.Sym.Key()
					tracePtr := cur.Trace
					steps := cur.Steps
					probe := cur.Clone()
					if !probe.StepInPlace() {
						t.Fatalf("ShareableStep=true but StepInPlace forked at pc %d (%s)", cur.PC, prog.At(cur.PC))
					}
					if !probe.Running() {
						t.Fatalf("ShareableStep=true but step terminated at pc %d (%s)", cur.PC, prog.At(cur.PC))
					}
					if probe.Trace != tracePtr {
						t.Fatalf("ShareableStep=true but step appended a trace event at pc %d (%s)", cur.PC, prog.At(cur.PC))
					}
					if got := probe.Sym.Key(); got != symKey {
						t.Fatalf("ShareableStep=true but step mutated the store at pc %d (%s): %q -> %q",
							cur.PC, prog.At(cur.PC), symKey, got)
					}
					if probe.Steps != steps+1 {
						t.Fatalf("shareable step advanced Steps by %d", probe.Steps-steps)
					}
				}
				if cur.StepInPlace() {
					continue
				}
				frontier = append(frontier, cur.Successors()...)
				break
			}
		}
		if shareable == 0 {
			t.Fatalf("reg %d: no shareable steps observed in %d states; classifier is degenerate", reg, checked)
		}
	}
}

// TestMergeCompatibleIgnoresStoreAndSteps pins the skeleton comparison:
// self and clone compare compatible, a diverged store or step counter keeps
// them so, a diverged register does not.
func TestMergeCompatibleIgnoresStoreAndSteps(t *testing.T) {
	prog, dets := factorial.WithDetectors()
	st := NewState(prog, dets, []int64{5}, DefaultOptions())
	st.Inject(isa.RegLoc(2))
	if !MergeCompatible(st, st) {
		t.Fatal("state not merge-compatible with itself")
	}
	c := st.Clone()
	if !MergeCompatible(st, c) {
		t.Fatal("clone not merge-compatible with original")
	}
	c.Sym.ConstrainRoot(0, isa.CmpGe, 7)
	c.Steps += 3
	if !MergeCompatible(st, c) {
		t.Fatal("store/steps divergence must not break skeleton compatibility")
	}
	c.Regs[5] = isa.Int(99)
	if MergeCompatible(st, c) {
		t.Fatal("register divergence must break compatibility")
	}
}

// TestLoopHashExcludesSteps: two states equal up to the step counter share a
// LoopHash but not a KeyHash.
func TestLoopHashExcludesSteps(t *testing.T) {
	st := NewState(factorial.Plain(), detector.EmptyTable(), []int64{3}, DefaultOptions())
	c := st.Clone()
	c.Steps += 17
	if st.LoopHash() != c.LoopHash() {
		t.Fatal("LoopHash must ignore Steps")
	}
	if st.KeyHash() == c.KeyHash() {
		t.Fatal("KeyHash must include Steps")
	}
}
