package symexec

import (
	"strings"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
)

// TestCheckForkOnErr: a detector over an erroneous location forks into a
// passing path (constraint recorded) and a detected path (negated
// constraint), exercising the slow stepCheck path.
func TestCheckForkOnErr(t *testing.T) {
	s := stateFor(t, `
	det(1, $1, <, 10)
	read $1
	check #1
	print $1
	halt
`, []int64{0})
	stepN(t, s, 1) // read
	s.Inject(isa.RegLoc(1))

	// The next step is the check: it must refuse in-place and fork.
	if s.StepInPlace() {
		t.Fatal("check over err executed in place")
	}
	succs := s.Successors()
	if len(succs) != 2 {
		t.Fatalf("%d successors, want 2", len(succs))
	}
	var pass, detected *State
	for _, c := range succs {
		if c.Running() {
			pass = c
		} else {
			detected = c
		}
	}
	if pass == nil || detected == nil {
		t.Fatal("missing pass or detected branch")
	}
	if c := pass.Sym.RootConstraints(0); c.Admits(10) || !c.Admits(9) {
		t.Errorf("pass constraints %s", c)
	}
	if detected.Exc.Kind != isa.ExcDetected {
		t.Errorf("detected branch exception %v", detected.Exc)
	}
	if c := detected.Sym.RootConstraints(0); !c.Admits(10) || c.Admits(9) {
		t.Errorf("detected constraints %s", c)
	}
}

// TestCheckMemoryTargetSymbolic: detectors over memory locations work
// symbolically, including err stored to memory.
func TestCheckMemoryTargetSymbolic(t *testing.T) {
	s := stateFor(t, `
	det(1, *(50), ==, 7)
	read $1
	st $1 50($0)
	check #1
	prints "ok"
	halt
`, []int64{0})
	stepN(t, s, 1)
	s.Inject(isa.RegLoc(1))
	terminals := exploreAll(t, s)
	if len(terminals) != 2 {
		t.Fatalf("%d terminals", len(terminals))
	}
	okSeen, detSeen := false, false
	for _, f := range terminals {
		switch f.Outcome() {
		case OutcomeNormal:
			okSeen = true
			// Passing requires the stored value to equal 7; the memory cell
			// must have been concretized.
			if v, okc := f.Mem.Load(50); !okc || !v.Equal(isa.Int(7)) {
				t.Errorf("pass branch memory %v", v)
			}
		case OutcomeDetected:
			detSeen = true
		}
	}
	if !okSeen || !detSeen {
		t.Errorf("branches missing: ok=%v detected=%v", okSeen, detSeen)
	}
}

// TestCheckSpecErrorsSymbolic: unknown detectors and undefined-memory
// expressions surface as throws on both stepping paths.
func TestCheckSpecErrorsSymbolic(t *testing.T) {
	cases := []string{
		"\tcheck #9\n\thalt\n",
		"\tdet(1, $1, ==, *(999))\n\tcheck #1\n\thalt\n",
		"\tdet(1, *(999), ==, 5)\n\tcheck #1\n\thalt\n",
	}
	for _, src := range cases {
		u := asm.MustParse("t", src)

		inPlace := NewState(u.Program, u.Detectors, nil, DefaultOptions())
		for inPlace.Running() && inPlace.StepInPlace() {
		}
		if inPlace.Running() || inPlace.Exc == nil || inPlace.Exc.Kind != isa.ExcThrow {
			t.Errorf("%q in-place: %v", src, inPlace.Exc)
		}

		slow := NewState(u.Program, u.Detectors, nil, DefaultOptions())
		terminals := exploreAll(t, slow)
		if len(terminals) != 1 || terminals[0].Exc == nil || terminals[0].Exc.Kind != isa.ExcThrow {
			t.Errorf("%q successors: %v", src, terminals)
		}
	}
}

// TestStateStringAndHelpers covers reporting helpers.
func TestStateStringAndHelpers(t *testing.T) {
	s := stateFor(t, "\tread $1\n\tprint $1\n\tprints \"!\"\n\thalt\n", []int64{4})
	for s.Running() {
		if !s.StepInPlace() {
			t.Fatal("forked")
		}
	}
	if got := s.OutputString(); got != "4!" {
		t.Errorf("OutputString %q", got)
	}
	vals := s.OutputValues()
	if len(vals) != 1 || !vals[0].Equal(isa.Int(4)) {
		t.Errorf("OutputValues %v", vals)
	}
	if s.OutputContainsErr() {
		t.Error("OutputContainsErr on concrete output")
	}
	s.Note(0, "free-form %d", 1)
	if s.Trace.Len() == 0 {
		t.Error("Note did not append")
	}
}

// TestKeyDistinguishesStuck: the dedup key must separate transient and
// permanent faults at the same location.
func TestKeyDistinguishesStuck(t *testing.T) {
	a := stateFor(t, "\thalt\n", nil)
	b := stateFor(t, "\thalt\n", nil)
	a.Inject(isa.RegLoc(1))
	b.InjectPermanent(isa.RegLoc(1))
	if a.Key() == b.Key() {
		t.Error("transient and stuck-at states share a key")
	}
	if !strings.Contains(b.Key(), "stuck") {
		t.Errorf("stuck key %q", b.Key())
	}
}

// TestOutcomeStrings covers naming.
func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{OutcomeNormal, OutcomeCrash, OutcomeHang, OutcomeDetected, OutcomeRunning} {
		if strings.HasPrefix(o.String(), "outcome(") {
			t.Errorf("outcome %d lacks a name", int(o))
		}
	}
}

// TestEndOfInputSymbolic: reading past the input throws on both paths.
func TestEndOfInputSymbolic(t *testing.T) {
	s := stateFor(t, "\tread $1\n\thalt\n", nil)
	terminals := exploreAll(t, s)
	if len(terminals) != 1 || terminals[0].Exc == nil || terminals[0].Exc.Kind != isa.ExcThrow {
		t.Fatalf("terminals %v", terminals)
	}
}
