package symexec

import (
	"testing"

	"symplfied/internal/isa"
)

// TestPermanentFaultSemantics: a stuck-at register keeps one symbolic root
// forever — writes are discarded and every read observes the same value, so
// repeated comparisons resolve deterministically after the first fork.
func TestPermanentFaultSemantics(t *testing.T) {
	s := stateFor(t, `
	read $1
	li $1 5         -- discarded under the stuck-at fault
loop:	setgt $2 $1 1
	beqi $2 0 exit
	jmp loop        -- loops forever while the stuck value stays > 1
exit:	print $1
	halt
`, []int64{3})
	opts := s.Opts
	opts.Watchdog = 200
	s.Opts = opts

	stepN(t, s, 1) // read
	s.InjectPermanent(isa.RegLoc(1))

	terminals := exploreAll(t, s)
	// Exactly two worlds: stuck value <= 1 (exit, prints it) or > 1 (hang).
	// No per-iteration re-forking: the comparison re-evaluates the same
	// root under the same constraints.
	if len(terminals) != 2 {
		for _, f := range terminals {
			t.Logf("terminal: %v out=%q sym=%s", f.Outcome(), f.OutputString(), f.Sym.Describe())
		}
		t.Fatalf("%d terminals, want 2", len(terminals))
	}
	var hangs, exits int
	for _, f := range terminals {
		switch f.Outcome() {
		case OutcomeHang:
			hangs++
			if c := f.Sym.RootConstraints(0); c.Admits(1) {
				t.Errorf("hang world admits stuck value 1: %s", c)
			}
		case OutcomeNormal:
			exits++
			if c := f.Sym.RootConstraints(0); c.Admits(2) {
				t.Errorf("exit world admits stuck value 2: %s", c)
			}
			// The write "li $1 5" must not have revived the register.
			if f.OutputString() == "5" {
				t.Error("stuck register accepted a write")
			}
		default:
			t.Errorf("unexpected outcome %v", f.Outcome())
		}
	}
	if hangs != 1 || exits != 1 {
		t.Errorf("hangs=%d exits=%d, want 1/1", hangs, exits)
	}
}

// TestPermanentMemoryFault: a stuck memory word ignores stores.
func TestPermanentMemoryFault(t *testing.T) {
	s := stateFor(t, `
	li $1 7
	st $1 100($0)
	ld $2 100($0)
	print $2
	halt
`, nil)
	s.InjectPermanent(isa.MemLoc(100))
	terminals := exploreAll(t, s)
	if len(terminals) != 1 {
		t.Fatalf("%d terminals", len(terminals))
	}
	f := terminals[0]
	if !f.OutputContainsErr() {
		t.Errorf("stuck word overwritten: output %q", f.OutputString())
	}
}

// TestTransientVsPermanentStateCount: the same fault site explodes into many
// worlds when transient (the counter keeps changing) but only a handful when
// permanent — the ablation the DESIGN.md calls out.
func TestTransientVsPermanentStateCount(t *testing.T) {
	run := func(permanent bool) int {
		s := stateFor(t, `
	read $1
	li $4 1
loop:	setgt $5 $1 $4
	beqi $5 0 exit
	subi $1 $1 1
	jmp loop
exit:	halt
`, []int64{5})
		opts := s.Opts
		opts.Watchdog = 300
		s.Opts = opts
		stepN(t, s, 2)
		if permanent {
			s.InjectPermanent(isa.RegLoc(1))
		} else {
			s.Inject(isa.RegLoc(1))
		}
		return len(exploreAll(t, s))
	}
	transient := run(false)
	permanent := run(true)
	if permanent >= transient {
		t.Errorf("permanent worlds (%d) not fewer than transient (%d)", permanent, transient)
	}
	if permanent != 2 {
		t.Errorf("permanent worlds = %d, want 2", permanent)
	}
}

// TestPermanentInjectionOnCloneLeavesParent: clones share the stuck-at set,
// so a permanent injection on a clone must replace the set, never write the
// one its parent holds.
func TestPermanentInjectionOnCloneLeavesParent(t *testing.T) {
	s := stateFor(t, "\tread $1\n\tread $2\n\tadd $3 $1 $2\n\thalt\n", []int64{1, 2})
	stepN(t, s, 2)
	s.InjectPermanent(isa.RegLoc(1))
	c := s.Clone()
	c.InjectPermanent(isa.RegLoc(2))
	if len(s.Stuck) != 1 || !s.stuck(isa.RegLoc(1)) || s.stuck(isa.RegLoc(2)) {
		t.Errorf("parent stuck-at set changed: %v", s.Stuck)
	}
	if len(c.Stuck) != 2 || !c.stuck(isa.RegLoc(1)) || !c.stuck(isa.RegLoc(2)) {
		t.Errorf("clone stuck-at set %v, want $1 and $2", c.Stuck)
	}
	fresh := NewState(s.Prog, nil, nil, DefaultOptions())
	fresh.Clone().InjectPermanent(isa.RegLoc(3))
	if fresh.Stuck != nil {
		t.Errorf("injection on a clone gave its parent a stuck-at set %v", fresh.Stuck)
	}
}
