package symexec

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
	"symplfied/internal/obs"
)

// kindPrelude defines the registers and memory cells every kindCase reads:
// $8 = 7, $9 = 3, $10 = 50 (a defined address), $12 = 5 (a valid code
// address), and cells 50 = 7, 60 = 3. The instruction under test follows at
// label "here"; "out" is a branch and jump target.
const kindPrelude = `
	det(1, $8, <, 10)
	det(2, $9, ==, $8 + 1)
	det(3, $9, ==, 3)
	li $8 7
	li $9 3
	li $10 50
	li $12 5
	st $8 50($0)
	st $9 60($0)
here:	%s
	halt
out:	halt
`

// kindCase is one instruction with err (or a stuck fault, or an option) in
// one operand position, and the successors the step must produce.
type kindCase struct {
	name  string
	instr string
	input []int64
	// setup runs at "here", before the step: injections, option changes.
	setup func(s *State)
	// want renders the successors, one per line (see renderSuccessor).
	want string
}

func injReg(r isa.Reg) func(*State) {
	return func(s *State) { s.Inject(isa.RegLoc(r)) }
}

func injMem(a int64) func(*State) {
	return func(s *State) { s.Inject(isa.MemLoc(a)) }
}

// renderSuccessor summarizes one successor: outcome, pc, the kinds of the
// trace events the step appended, and a hash of the full state key plus the
// appended event texts (so semantics and trace wording are both pinned).
func renderSuccessor(parent, c *State) string {
	evs := c.Trace.Events()[parent.Trace.Len():]
	kinds := make([]string, len(evs))
	h := fnv.New32a()
	h.Write([]byte(c.Key()))
	for i, e := range evs {
		kinds[i] = e.Kind.String()
		fmt.Fprintf(h, "|%s", e)
	}
	if c.Truncated {
		kinds = append(kinds, "truncated")
	}
	return fmt.Sprintf("%s@%d[%s]#%08x", c.Outcome(), c.PC, strings.Join(kinds, ","), h.Sum32())
}

// kindCases covers every lowered Kind with err in each operand position it
// has: rs, rt, the destination, a memory cell, a load/store base and a jr
// target, plus the terminal and capped variants. The expectations were
// recorded from the opcode-dispatched executor that preceded the Kind
// dispatch, so they are an independent reference for the rewrite.
var kindCases = []kindCase{
	{name: "add/rs", instr: "add $11 $8 $9", setup: injReg(8),
		want: "running@7[]#83684311"},
	{name: "add/rt", instr: "add $11 $8 $9", setup: injReg(9),
		want: "running@7[]#89e5c396"},
	{name: "add/rd", instr: "add $11 $8 $9", setup: injReg(11),
		want: "running@7[]#c41f6217"},
	{name: "add/zero-rd", instr: "add $0 $8 $9", setup: injReg(8),
		want: "running@7[]#986d4e26"},
	{name: "sub/same-root", instr: "sub $11 $8 $8", setup: injReg(8),
		want: "running@7[]#986d4e26"},
	{name: "addi/rs", instr: "addi $11 $8 5", setup: injReg(8),
		want: "running@7[]#9dc75a03"},
	{name: "mult/zero", instr: "mult $11 $8 $0", setup: injReg(8),
		want: "running@7[]#986d4e26"},
	{name: "div/rs", instr: "div $11 $8 $9", setup: injReg(8),
		want: "running@7[]#914ee704"},
	{name: "div/rt", instr: "div $11 $8 $9", setup: injReg(9),
		want: "crash@6[fork,constraint,exception]#8f427c17\nrunning@7[fork,constraint]#f5008ee0"},
	{name: "div/concrete-zero", instr: "div $11 $8 $0",
		want: "crash@6[exception]#41fb76f6"},
	{name: "divi/zero-rs", instr: "divi $11 $8 0", setup: injReg(8),
		want: "crash@6[exception]#ab3106fe"},
	{name: "mod/rt", instr: "mod $11 $8 $9", setup: injReg(9),
		want: "crash@6[fork,constraint,exception]#8f427c17\nrunning@7[fork,constraint]#f5008ee0"},
	{name: "and/zero", instr: "and $11 $8 $0", setup: injReg(8),
		want: "running@7[]#986d4e26"},
	{name: "sll/rs", instr: "sll $11 $8 $9", setup: injReg(8),
		want: "running@7[]#914ee704"},
	{name: "add/strict", instr: "add $11 $8 $9",
		setup: func(s *State) { s.Opts.AffineTracking = false; s.Inject(isa.RegLoc(8)) },
		want:  "running@7[]#914ee704"},
	{name: "seteq/rs", instr: "seteq $11 $8 $9", setup: injReg(8),
		want: "running@7[fork,constraint]#1b2934de\nrunning@7[fork,constraint]#6f911b42"},
	{name: "setlt/rt", instr: "setlt $11 $8 $9", setup: injReg(9),
		want: "running@7[fork,constraint]#7c695fd7\nrunning@7[fork,constraint]#87faaa33"},
	{name: "setgei/rs", instr: "setgei $11 $8 5", setup: injReg(8),
		want: "running@7[fork,constraint]#3d7f73cf\nrunning@7[fork,constraint]#f12acb4d"},
	{name: "seteq/same-term", instr: "seteq $11 $8 $8", setup: injReg(8),
		want: "running@7[]#503a1e57"},
	{name: "setne/rs-rt-roots", instr: "setne $11 $8 $9",
		setup: func(s *State) { s.Inject(isa.RegLoc(8)); s.Inject(isa.RegLoc(9)) },
		want:  "running@7[fork]#fdd261e4\nrunning@7[fork,constraint]#9a12273f"},
	{name: "seteq/rd", instr: "seteq $11 $8 $9", setup: injReg(11),
		want: "running@7[]#cf34bf9c"},
	{name: "mov/rs", instr: "mov $11 $8", setup: injReg(8),
		want: "running@7[]#3d7c4ca7"},
	{name: "mov/rd", instr: "mov $11 $8", setup: injReg(11),
		want: "running@7[]#426b2345"},
	{name: "li/rd", instr: "li $11 4", setup: injReg(11),
		want: "running@7[]#adea2d00"},
	{name: "lui/rd", instr: "lui $11 4", setup: injReg(11),
		want: "running@7[]#c686f6cb"},
	{name: "ld/base", instr: "ld $11 0($10)", setup: injReg(10),
		want: "crash@6[fork,constraint,constraint,exception]#d0947a31\nrunning@7[constraint,fork]#f73845b5\nrunning@7[constraint,fork]#417a6ed8"},
	{name: "ld/base-symbolic-mem", instr: "ld $11 0($10)",
		setup: func(s *State) { s.Opts.SymbolicMem = true; s.Inject(isa.RegLoc(10)) },
		want:  "crash@6[fork,constraint,constraint,exception]#d0947a31\nrunning@7[fork]#898e30a9"},
	{name: "ld/base-capped", instr: "ld $11 0($10)",
		setup: func(s *State) { s.Opts.MaxMemTargets = 1; s.Inject(isa.RegLoc(10)) },
		want:  "crash@6[fork,constraint,constraint,exception,truncated]#d0947a31\nrunning@7[constraint,fork,truncated]#f73845b5"},
	{name: "ld/cell", instr: "ld $11 50($0)", setup: injMem(50),
		want: "running@7[]#7d56ef59"},
	{name: "ld/rt", instr: "ld $11 50($0)", setup: injReg(11),
		want: "running@7[]#426b2345"},
	{name: "ld/undefined", instr: "ld $11 70($0)",
		want: "crash@6[exception]#3f4c4bbd"},
	{name: "st/base", instr: "st $8 0($10)", setup: injReg(10),
		want: "running@7[constraint,fork]#ecd4ed66\nrunning@7[constraint,fork]#5e7d3d35\nrunning@7[fork,constraint,constraint]#b1249ab9"},
	{name: "st/base-capped", instr: "st $8 0($10)",
		setup: func(s *State) { s.Opts.MaxMemTargets = 1; s.Inject(isa.RegLoc(10)) },
		want:  "running@7[constraint,fork,truncated]#ecd4ed66\nrunning@7[fork,constraint,constraint,truncated]#b1249ab9"},
	{name: "st/value", instr: "st $8 50($0)", setup: injReg(8),
		want: "running@7[]#4d5d7314"},
	{name: "st/cell", instr: "st $8 50($0)", setup: injMem(50),
		want: "running@7[]#cf34bf9c"},
	{name: "st/fresh-cell", instr: "st $8 70($0)", setup: injReg(8),
		want: "running@7[]#67b54883"},
	{name: "beq/rs", instr: "beq $8 $9 out", setup: injReg(8),
		want: "running@8[fork,constraint]#ccc13f8e\nrunning@7[fork,constraint]#e53fc886"},
	{name: "bne/rt", instr: "bne $8 $9 out", setup: injReg(9),
		want: "running@8[fork,constraint]#5f57fe36\nrunning@7[fork,constraint]#e1bef11d"},
	{name: "beqi/rs", instr: "beqi $8 7 out", setup: injReg(8),
		want: "running@8[fork,constraint]#0f3463dc\nrunning@7[fork,constraint]#177de2b8"},
	{name: "bnei/rs", instr: "bnei $8 7 out", setup: injReg(8),
		want: "running@8[fork,constraint]#d4bbc7bb\nrunning@7[fork,constraint]#f119f761"},
	{name: "beq/same-term", instr: "beq $8 $8 out", setup: injReg(8),
		want: "running@8[]#9a9d1b47"},
	{name: "bne/concrete", instr: "bne $8 $9 out",
		want: "running@8[]#ce044e0f"},
	{name: "jmp", instr: "jmp out",
		want: "running@8[]#ce044e0f"},
	{name: "jal/ra", instr: "jal out", setup: injReg(isa.RegRA),
		want: "running@8[]#d435f562"},
	{name: "jr/target", instr: "jr $10", setup: injReg(10),
		want: "running@0[constraint,control]#bf8d1d42\nrunning@1[constraint,control]#e6895f8a\nrunning@2[constraint,control]#c560dd2a\nrunning@3[constraint,control]#cf97d5f2\nrunning@4[constraint,control]#69569a4a\nrunning@5[constraint,control]#e9da4572\nrunning@6[constraint,control]#a1592baf\nrunning@7[constraint,control]#9de08d97\nrunning@8[constraint,control]#c5d4d5a5\ncrash@6[fork,exception]#304a010b"},
	{name: "jr/target-capped", instr: "jr $10",
		setup: func(s *State) { s.Opts.MaxControlTargets = 2; s.Inject(isa.RegLoc(10)) },
		want:  "running@0[constraint,control,truncated]#bf8d1d42\nrunning@1[constraint,control,truncated]#e6895f8a\ncrash@6[fork,exception,truncated]#304a010b"},
	{name: "jr/concrete", instr: "jr $12", setup: injReg(8),
		want: "running@5[]#0be58020"},
	{name: "jr/concrete-invalid", instr: "jr $10",
		want: "running@50[]#baf3153c"},
	{name: "read/rd", instr: "read $11", input: []int64{4}, setup: injReg(11),
		want: "running@7[]#1ba5c229"},
	{name: "read/eof", instr: "read $11",
		want: "crash@6[exception]#16f49297"},
	{name: "print/err", instr: "print $8", setup: injReg(8),
		want: "running@7[output]#f2756c18"},
	{name: "print/zero-reg", instr: "print $0", setup: injReg(isa.RegZero),
		want: "running@7[]#904439a6"},
	{name: "prints", instr: `prints "hi"`,
		want: "running@7[]#dc92e11f"},
	{name: "nop", instr: "nop", setup: injReg(8),
		want: "running@7[]#986d4e26"},
	{name: "halt", instr: "halt", setup: injReg(8),
		want: "normal@6[halt]#7ea206fd"},
	{name: "throw", instr: `throw "boom"`,
		want: "crash@6[exception]#1ab39f94"},
	{name: "check/target", instr: "check #1", setup: injReg(8),
		want: "running@7[fork,constraint,check-pass]#532b48c4\ndetected@6[fork,constraint,detect,exception]#5e1683a9"},
	{name: "check/expr", instr: "check #2", setup: injReg(8),
		want: "running@7[fork,constraint,check-pass]#ab0feba7\ndetected@6[fork,constraint,detect,exception]#6dcd63dc"},
	{name: "check/pass", instr: "check #3",
		want: "running@7[check-pass]#8355c6a5"},
	{name: "check/fail", instr: "check #2",
		want: "detected@6[detect,exception]#e950640f"},
	{name: "check/unknown", instr: "check #9",
		want: "crash@6[exception]#1199a638"},
	{name: "stuck/rd", instr: "add $11 $8 $9",
		setup: func(s *State) { s.InjectPermanent(isa.RegLoc(11)) },
		want:  "running@7[]#97e50135"},
	{name: "stuck/cell", instr: "st $8 50($0)",
		setup: func(s *State) { s.InjectPermanent(isa.MemLoc(50)) },
		want:  "running@7[]#9a5e2d22"},
	{name: "watchdog", instr: "nop",
		setup: func(s *State) { s.Opts.Watchdog = s.Steps },
		want:  "hang@6[exception]#a0b86218"},
	{name: "fetch/invalid", instr: "nop",
		setup: func(s *State) { s.PC = 40 },
		want:  "crash@40[exception]#444112db"},
}

// kindState positions a state at the case's instruction and applies setup.
func kindState(t *testing.T, c kindCase) *State {
	t.Helper()
	u := asm.MustParse(c.name, fmt.Sprintf(kindPrelude, c.instr))
	s := NewState(u.Program, u.Detectors, c.input, DefaultOptions())
	s.Stats = &obs.ExecStats{}
	here := u.Program.Labels["here"]
	for s.PC != here {
		if !s.StepInPlace() {
			t.Fatalf("prelude refused an in-place step at pc %d", s.PC)
		}
	}
	if c.setup != nil {
		c.setup(s)
	}
	return s
}

// TestSuccessorsPerKind pins Successors, Kind by Kind and operand position
// by operand position, against recorded expectations, and checks that
// StepInPlace takes exactly the one-successor steps, to the same state.
func TestSuccessorsPerKind(t *testing.T) {
	for _, c := range kindCases {
		t.Run(c.name, func(t *testing.T) {
			s := kindState(t, c)
			before := s.Key()
			succs := s.Successors()
			if s.Key() != before {
				t.Fatalf("Successors mutated its receiver")
			}
			lines := make([]string, len(succs))
			for i, succ := range succs {
				lines[i] = renderSuccessor(s, succ)
			}
			if got := strings.Join(lines, "\n"); got != c.want {
				t.Errorf("successors:\n%s\nwant:\n%s", got, c.want)
			}

			inPlace := kindState(t, c)
			stepped := inPlace.StepInPlace()
			if stepped != (len(succs) == 1) {
				t.Fatalf("StepInPlace = %v with %d successors", stepped, len(succs))
			}
			if !stepped {
				if inPlace.Key() != before {
					t.Fatal("refused StepInPlace mutated the state")
				}
				return
			}
			if got := renderSuccessor(s, inPlace); got != lines[0] {
				t.Errorf("StepInPlace: %s, Successors: %s", got, lines[0])
			}
		})
	}
}
