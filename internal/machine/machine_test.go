package machine

import (
	"strings"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/detector"
	"symplfied/internal/isa"
)

func runSrc(t *testing.T, src string, input []int64, opts Options) Result {
	t.Helper()
	u := asm.MustParse("t", src)
	if opts.Detectors == nil {
		opts.Detectors = u.Detectors
	}
	return New(u.Program, input, opts).Run()
}

func wantOutput(t *testing.T, res Result, want string) {
	t.Helper()
	if res.Status != StatusHalted {
		t.Fatalf("status %v (%v)", res.Status, res.Exception)
	}
	if got := RenderOutput(res.Output); got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	res := runSrc(t, `
	li $1 10
	li $2 3
	add $3 $1 $2
	print $3        -- 13
	sub $3 $1 $2
	print $3        -- 7
	mult $3 $1 $2
	print $3        -- 30
	div $3 $1 $2
	print $3        -- 3
	mod $3 $1 $2
	print $3        -- 1
	and $3 $1 $2
	print $3        -- 2
	or $3 $1 $2
	print $3        -- 11
	xor $3 $1 $2
	print $3        -- 9
	nor $3 $0 $0
	print $3        -- -1
	sll $3 $1 $2
	print $3        -- 80
	halt
`, nil, Options{})
	wantOutput(t, res, "13730312119-180")
}

func TestZeroRegisterHardwired(t *testing.T) {
	res := runSrc(t, `
	li $0 99        -- write to $0 is discarded
	print $0
	addi $0 $0 5
	print $0
	halt
`, nil, Options{})
	wantOutput(t, res, "00")
}

func TestBranchesAndCalls(t *testing.T) {
	res := runSrc(t, `
	li $1 2
	beqi $1 2 eq
	prints "X"
eq:	bnei $1 3 ne
	prints "Y"
ne:	li $2 2
	beq $1 $2 req
	prints "Z"
req:	jal fn
	prints "back"
	halt
fn:	prints "fn "
	jr $31
`, nil, Options{})
	wantOutput(t, res, "fn back")
}

func TestExceptionIllegalFetch(t *testing.T) {
	res := runSrc(t, `
	li $1 999
	jr $1
`, nil, Options{})
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcIllegalInstr {
		t.Fatalf("got %v (%v)", res.Status, res.Exception)
	}
}

func TestExceptionUndefinedLoad(t *testing.T) {
	res := runSrc(t, "\tld $1 1234($0)\n\thalt\n", nil, Options{})
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcIllegalAddr {
		t.Fatalf("got %v (%v)", res.Status, res.Exception)
	}
}

func TestStoreDefinesMemory(t *testing.T) {
	res := runSrc(t, `
	li $1 7
	st $1 1234($0)
	ld $2 1234($0)
	print $2
	halt
`, nil, Options{})
	wantOutput(t, res, "7")
}

func TestExceptionDivZero(t *testing.T) {
	res := runSrc(t, "\tli $1 5\n\tdiv $2 $1 $0\n\thalt\n", nil, Options{})
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcDivZero {
		t.Fatalf("got %v (%v)", res.Status, res.Exception)
	}
}

func TestWatchdogTimeout(t *testing.T) {
	res := runSrc(t, "loop:\tjmp loop\n", nil, Options{Watchdog: 100})
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcTimeout {
		t.Fatalf("got %v (%v)", res.Status, res.Exception)
	}
	if res.Steps != 100 {
		t.Errorf("steps %d, want 100", res.Steps)
	}
}

func TestEndOfInput(t *testing.T) {
	res := runSrc(t, "\tread $1\n\tread $2\n\thalt\n", []int64{5}, Options{})
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcThrow {
		t.Fatalf("got %v (%v)", res.Status, res.Exception)
	}
	if !strings.Contains(res.Exception.Detail, "end of input") {
		t.Errorf("detail %q", res.Exception.Detail)
	}
}

func TestThrowInstruction(t *testing.T) {
	res := runSrc(t, "\tthrow \"custom failure\"\n", nil, Options{})
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcThrow || res.Exception.Detail != "custom failure" {
		t.Fatalf("got %v (%v)", res.Status, res.Exception)
	}
}

func TestDetectorPassAndFire(t *testing.T) {
	// Passing check.
	res := runSrc(t, `
	det(1, $1, ==, 5)
	li $1 5
	check #1
	prints "ok"
	halt
`, nil, Options{})
	wantOutput(t, res, "ok")

	// Firing check halts with a detection exception.
	res = runSrc(t, `
	det(1, $1, ==, 5)
	li $1 6
	check #1
	prints "unreachable"
	halt
`, nil, Options{})
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcDetected {
		t.Fatalf("got %v (%v)", res.Status, res.Exception)
	}
}

func TestDetectorMemoryExpression(t *testing.T) {
	res := runSrc(t, `
	det(4, $5, ==, $3 + *(1000))
	li $3 2
	li $9 40
	st $9 1000($0)
	li $5 42
	check #4
	prints "sum ok"
	halt
`, nil, Options{})
	wantOutput(t, res, "sum ok")
}

func TestUnknownDetectorThrows(t *testing.T) {
	res := runSrc(t, "\tcheck #9\n\thalt\n", nil, Options{})
	if res.Status != StatusExcepted || res.Exception.Kind != isa.ExcThrow {
		t.Fatalf("got %v (%v)", res.Status, res.Exception)
	}
}

func TestRunUntilThenInject(t *testing.T) {
	u := asm.MustParse("t", "\tli $1 1\n\tprint $1\n\thalt\n")
	m := New(u.Program, nil, Options{})
	if !m.RunUntil(1, 1) { // stop before the print
		t.Fatal("breakpoint not reached")
	}
	m.SetReg(1, isa.Int(77))
	wantOutput(t, m.Run(), "77")
}

func TestRunUntilOccurrences(t *testing.T) {
	u := asm.MustParse("t", `
	li $1 3
loop:	subi $1 $1 1
	bnei $1 0 loop
	halt
`)
	m := New(u.Program, nil, Options{})
	if !m.RunUntil(1, 2) { // second arrival at the subi
		t.Fatal("breakpoint not reached")
	}
	if v, _ := m.Reg(1).Concrete(); v != 2 {
		t.Fatalf("$1 = %d at second occurrence, want 2", v)
	}
	// Beyond the loop count: never reached.
	m2 := New(u.Program, nil, Options{})
	if m2.RunUntil(1, 9) {
		t.Fatal("unreachable occurrence reported reached")
	}
	if m2.Status() != StatusHalted {
		t.Fatalf("status %v", m2.Status())
	}
}

func TestInputConsumedAndSnapshot(t *testing.T) {
	u := asm.MustParse("t", "\tread $1\n\tst $1 5($0)\n\thalt\n")
	m := New(u.Program, []int64{9, 8}, Options{})
	m.Run()
	if in := m.UnreadInput(); len(in) != 1 || !in[0].Equal(isa.Int(8)) {
		t.Errorf("UnreadInput = %v, want [8]", in)
	}
	var snap isa.Memory
	m.CopyMem(&snap)
	if v, ok := snap.Load(5); !ok || !v.Equal(isa.Int(9)) || snap.Len() != 1 {
		t.Errorf("snapshot *(5) = %v, %v with %d words", v, ok, snap.Len())
	}
	// Snapshot is a copy, in both directions.
	snap.Store(5, isa.Int(0))
	if v, _ := m.Mem(5); !v.Equal(isa.Int(9)) {
		t.Error("snapshot aliases machine memory")
	}
	m.SetMem(6, isa.Int(1))
	if _, ok := snap.Load(6); ok {
		t.Error("machine store shows in the snapshot")
	}
}

func TestOutputHelpers(t *testing.T) {
	out := []OutItem{
		{IsStr: true, Str: "x = "},
		{Val: isa.Int(4)},
		{Val: isa.Err()},
	}
	if got := RenderOutput(out); got != "x = 4err" {
		t.Errorf("RenderOutput = %q", got)
	}
	vals := OutputValues(out)
	if len(vals) != 2 || !vals[0].Equal(isa.Int(4)) || !vals[1].IsErr() {
		t.Errorf("OutputValues = %v", vals)
	}
}

func TestMachineImplementsDetectorEnv(t *testing.T) {
	var _ detector.Env = (*Machine)(nil)
}

// TestRunTail: RunTail resumes an image where it left off, stops at its
// absolute step limit and before a CHECK without counting it, and moves the
// memory image in and out without disturbing a copy-on-write sibling.
func TestRunTail(t *testing.T) {
	u := asm.MustParse("tail", `
	det(1, $1, >, 0)
	li $1 5
	st $1 10($0)
	check #1
	ld $2 10($0)
	print $2
	halt
`)
	var sib isa.Memory
	sib.Store(10, isa.Int(7))
	img := Image{Mem: sib.Clone()}
	var m Machine
	step := func(limit, wantPC, wantSteps int, wantStatus Status) {
		t.Helper()
		m.RunTail(u.Program, 100, &img, limit)
		if img.PC != wantPC || img.Steps != wantSteps || img.Status != wantStatus {
			t.Fatalf("RunTail(limit %d): pc %d, %d steps, %v; want pc %d, %d steps, %v",
				limit, img.PC, img.Steps, img.Status, wantPC, wantSteps, wantStatus)
		}
	}
	step(1, 1, 1, StatusRunning)   // the step limit
	step(100, 2, 2, StatusRunning) // before the CHECK
	step(100, 2, 2, StatusRunning) // still there: a CHECK is the caller's
	if v, _ := img.Mem.Load(10); !v.Equal(isa.Int(5)) {
		t.Errorf("image word 10 = %v, want 5", v)
	}
	if v, _ := sib.Load(10); !v.Equal(isa.Int(7)) {
		t.Errorf("the store reached the copy-on-write sibling: word 10 = %v", v)
	}
	img.PC, img.Steps = img.PC+1, img.Steps+1 // the caller ran the CHECK
	step(100, 5, 6, StatusHalted)
	if got := RenderOutput(img.Out); got != "5" || img.Exc != nil {
		t.Errorf("output %q, exception %v; want \"5\" and none", got, img.Exc)
	}

	hang := Image{}
	m.RunTail(u.Program, 1, &hang, 100)
	want := isa.Exception{Kind: isa.ExcTimeout, PC: 1, Detail: "watchdog after 1 instructions"}
	if hang.Status != StatusExcepted || hang.Exc == nil || *hang.Exc != want || hang.Steps != 1 {
		t.Errorf("watchdog: %v %+v after %d steps, want %+v after 1", hang.Status, hang.Exc, hang.Steps, want)
	}
}
