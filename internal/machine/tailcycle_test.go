package machine

import (
	"fmt"
	"strings"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/detector"
	"symplfied/internal/fuzzprog"
	"symplfied/internal/isa"
)

// stepCheck executes the CHECK RunTail stopped img before, on a machine
// that runs detectors: the caller's part of the tail protocol.
func stepCheck(prog *isa.Program, dets *detector.Table, watchdog int, img *Image) {
	m := Machine{
		prog: prog, code: prog.Code(), pc: img.PC, regs: img.Regs, mem: img.Mem,
		in: img.In, inPos: img.InPos, out: img.Out, steps: img.Steps,
		status: StatusRunning, watchdog: watchdog, dets: dets,
	}
	m.Step()
	img.PC, img.Regs, img.Mem, img.InPos, img.Out = m.pc, m.regs, m.mem, m.inPos, m.out
	img.Steps, img.Status, img.Exc = m.steps, m.status, m.exc
}

// runTailTo runs prog from its first instruction to limit steps through
// RunTail on m, executing every CHECK it stops before with stepCheck, and
// returns the final image and the steps RunTail skipped.
func runTailTo(m *Machine, prog *isa.Program, dets *detector.Table, watchdog int, in []isa.Value, limit int) (Image, int) {
	img, skipped := Image{In: in}, 0
	for {
		skipped += m.RunTail(prog, watchdog, &img, limit)
		if img.Status != StatusRunning || img.Steps >= limit {
			return img, skipped
		}
		stepCheck(prog, dets, watchdog, &img)
		if img.Status != StatusRunning {
			return img, skipped
		}
	}
}

// diffImage describes how img differs from the reference machine ref, or
// returns "" when the two states are the same: pc, registers, memory, input
// position, output, steps, status and the exception's Kind/PC/Detail.
func diffImage(img *Image, ref *Machine) string {
	switch {
	case img.PC != ref.pc:
		return fmt.Sprintf("pc %d, want %d", img.PC, ref.pc)
	case img.Regs != ref.regs:
		return fmt.Sprintf("registers %v, want %v", img.Regs, ref.regs)
	case !img.Mem.Equal(&ref.mem):
		return "memory differs"
	case img.InPos != ref.inPos:
		return fmt.Sprintf("input position %d, want %d", img.InPos, ref.inPos)
	case RenderOutput(img.Out) != RenderOutput(ref.out) || len(img.Out) != len(ref.out):
		return fmt.Sprintf("output %q, want %q", RenderOutput(img.Out), RenderOutput(ref.out))
	case img.Steps != ref.steps || img.Status != ref.status:
		return fmt.Sprintf("%d steps, %v; want %d steps, %v", img.Steps, img.Status, ref.steps, ref.status)
	case (img.Exc == nil) != (ref.exc == nil):
		return fmt.Sprintf("exception %+v, want %+v", img.Exc, ref.exc)
	case img.Exc != nil && (img.Exc.Kind != ref.exc.Kind || img.Exc.PC != ref.exc.PC || img.Exc.Detail != ref.exc.Detail):
		return fmt.Sprintf("exception %+v, want %+v", *img.Exc, *ref.exc)
	}
	return ""
}

// tailExactness runs src through RunTail at every limit from 1 to one past
// watchdog and compares each result with a machine executing Step by Step
// to the same limit. It returns the steps RunTail skipped over all limits.
func tailExactness(t *testing.T, name, src string, watchdog int) int {
	t.Helper()
	u := asm.MustParse(name, src)
	ref := New(u.Program, nil, Options{Watchdog: watchdog, Detectors: u.Detectors})
	var m Machine
	skipped := 0
	for limit := 1; limit <= watchdog+1; limit++ {
		ref.Step()
		img, n := runTailTo(&m, u.Program, ref.dets, watchdog, ref.in, limit)
		if d := diffImage(&img, ref); d != "" {
			t.Fatalf("%s, limit %d: %s", name, limit, d)
		}
		skipped += n
	}
	if ref.status == StatusRunning {
		t.Fatalf("%s: still running after the watchdog", name)
	}
	return skipped
}

// TestRunTailCycleExactness: on every program below, RunTail with its cycle
// accelerator leaves exactly the state Step-by-step execution reaches, at
// every step limit up to the watchdog, and skips steps exactly where a lap
// can be proven to repeat: an exact lap, or an affine one no longer than
// MaxAffineLap, that leaves memory unchanged (storing only the values
// already there). Laps whose registers change non-affinely, that print or
// that hold a CHECK (RunTail stops before it) run for real.
func TestRunTailCycleExactness(t *testing.T) {
	const w = 700
	long := func(body string, n int) string {
		return "loop:\n" + strings.Repeat("\t"+body+"\n", n) + "\tjmp loop\n"
	}
	for _, c := range []struct {
		name, src string
		watchdog  int
		skips     bool
	}{
		{"spin", "\tli $1 4\nloop:\tjmp loop\n", w, true},
		{"exact loop", "\tli $1 4\nloop:\tadd $2 $1 $1\n\tbne $2 $0 loop\n\thalt\n", w, true},
		{"invariant store", "\tli $1 7\nloop:\tst $1 10($0)\n\tld $2 10($0)\n\tbeqi $2 7 loop\n\thalt\n", w, true},
		{"addi counter", "loop:\taddi $1 $1 1\n\taddi $2 $2 -3\n\tbeqi $3 0 loop\n\thalt\n", w, true},
		{"mult-by-constant counter", "\tli $4 5\nloop:\taddi $1 $1 1\n\tmult $2 $1 3\n\tmult $3 $1 $4\n\tmult $5 $5 7\n\tjmp loop\n", w, true},
		// x·3 passes the structural proof but its delta grows every lap;
		// x·-1 repeats its delta every other lap only.
		{"mult-by-constant growth", "\tli $3 1\nloop:\taddi $1 $1 1\n\tmult $3 $3 3\n\tjmp loop\n", w, false},
		{"mult-by-constant flip", "\tli $3 1\nloop:\taddi $1 $1 1\n\tmult $3 $3 -1\n\tjmp loop\n", w, false},
		{"non-affine square", "\tli $1 3\nloop:\tmult $1 $1 $1\n\taddi $1 $1 1\n\taddi $2 $2 1\n\tjmp loop\n", w, false},
		{"check lap", "\tdet(1, $1, <, 1000000)\nloop:\taddi $1 $1 1\n\tcheck #1\n\tjmp loop\n", w, false},
		{"detector fires", "\tdet(1, $1, <, 300)\nloop:\taddi $1 $1 1\n\tcheck #1\n\tjmp loop\n", w, false},
		{"print lap", "\tli $1 2\nloop:\tprint $1\n\tjmp loop\n", w, false},
		{"long exact lap", long("nop", MaxAffineLap+50), 6_000, true},
		{"long affine lap", long("addi $1 $1 1", MaxAffineLap+50), 6_000, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if skipped := tailExactness(t, c.name, c.src, c.watchdog); (skipped > 0) != c.skips {
				t.Errorf("skipped %d steps over all limits; want skipping %v", skipped, c.skips)
			}
		})
	}
}

// TestRunTailMemoryLaps: laps that carry state in memory never repeat,
// whatever their registers do, and must run for real. Prefixes of one to
// six instructions place the first checkpoint at every pc of the loops.
// The counter lap's registers recur at its head, so only the count of
// stores that changed memory stops an exact skip there. The gated lap's
// register $3 halves to 0 and then stays 0, and the lap opens its memory
// counter only once $3 is 0: the lap from the checkpoint where $3 is 1
// changes registers but not memory, so only the store count after the
// probe's recorded lap stops an affine skip.
func TestRunTailMemoryLaps(t *testing.T) {
	for pre := 1; pre <= 6; pre++ {
		prefix := "\tst $0 20($0)\n" + strings.Repeat("\tnop\n", pre-1)
		for _, c := range []struct{ name, src string }{
			{"memory counter", prefix + "loop:\tld $1 20($0)\n\taddi $1 $1 1\n\tst $1 20($0)\n\tbeqi $1 100 out\n\tli $1 0\n\tjmp loop\nout:\thalt\n"},
			{"gated memory counter", "\tli $3 32768\n" + prefix + "loop:\tbnei $3 0 skip\n\tld $4 20($0)\n\taddi $4 $4 1\n\tst $4 20($0)\n\tli $4 0\nskip:\tsrl $3 $3 1\n\taddi $1 $1 1\n\tjmp loop\n"},
		} {
			name := fmt.Sprintf("%s, prefix %d", c.name, pre)
			if skipped := tailExactness(t, name, c.src, 700); skipped != 0 {
				t.Errorf("%s: skipped %d steps", name, skipped)
			}
		}
	}
}

// TestRunTailStoreLaps: laps that change memory, run through RunTail at
// every step limit, end in the state Step-by-step execution reaches, and
// the store-lap gear skips exactly the ones whose stores and loads it can
// prove repeat: the unbalanced frame of a return through a corrupted $31
// (the lap enters a function just past its frame allocation, so the stack
// pointer walks up a frame per lap), a loop that passes the checkpoint
// twice per period and rewrites a word with alternating values, a load of
// the word the previous lap stored, and frames that overlap from lap to
// lap. A fixed-address load
// that a strided store reaches 30 laps in must not be skipped past, nor a
// load of a word its own lap or the previous one stored when a store in
// between reaches it some 50 laps in; neither may a strided load of words the prefix wrote, or of
// words stored two laps back (their values grow as a Fibonacci sequence),
// a word read back from the previous lap that triples every lap, or a
// word read back from its own lap that a branch then tests.
func TestRunTailStoreLaps(t *testing.T) {
	const w = 700
	for _, c := range []struct {
		name, src string
		skips     bool
	}{
		{"unbalanced frame", `
	li $29 1000
	li $8 42
	st $8 5($0)
	li $31 8
	jmp body
leaf:	ld $8 5($0)
	jr $31
fn:	subi $29 $29 2
body:	st $31 0($29)
	jal leaf
	ld $31 0($29)
	addi $29 $29 2
	jr $31
`, true},
		{"period of two laps", `
	li $29 1000
loop:	li $5 1
	st $5 0($29)
	jal f
	li $5 2
	st $5 0($29)
	jal f
	jmp loop
f:	addi $6 $5 0
	jr $31
`, true},
		{"previous lap's store", `
	li $1 100
	st $0 0($1)
loop:	ld $2 0($1)
	addi $2 $2 3
	addi $1 $1 1
	st $2 0($1)
	jmp loop
`, true},
		{"overlapping frames", `
	li $29 1000
	li $5 9
	st $5 1000($0)
loop:	ld $8 0($29)
	st $5 0($29)
	st $8 1($29)
	ld $6 0($29)
	add $7 $7 $6
	addi $29 $29 1
	jmp loop
`, true},
		{"fixed load a strided store reaches", `
	li $1 100
	li $4 7
	st $4 130($0)
loop:	ld $2 130($0)
	st $1 0($1)
	add $3 $3 $2
	addi $1 $1 1
	jmp loop
`, true},
		{"store in between reaches a load", `
	li $1 100
	li $9 50
	li $5 3
	li $6 11
	st $0 0($1)
loop:	st $5 0($1)
	st $6 0($9)
	ld $7 0($1)
	add $8 $8 $7
	addi $1 $1 1
	addi $9 $9 2
	jmp loop
`, true},
		{"store after a load's writer reaches it", `
	li $1 100
	li $9 40
	li $5 3
	li $6 11
	st $5 100($0)
loop:	ld $7 0($1)
	add $8 $8 $7
	addi $1 $1 1
	st $5 0($1)
	st $6 0($9)
	addi $9 $9 2
	jmp loop
`, true},
		{"store before a load reaches its word", `
	li $1 100
	li $9 40
	li $5 3
	li $6 11
	st $5 100($0)
loop:	st $6 0($9)
	ld $7 0($1)
	add $8 $8 $7
	addi $1 $1 1
	st $5 0($1)
	addi $9 $9 2
	jmp loop
`, true},
		{"strided load of prefix words", `
	li $1 100
init:	st $1 0($1)
	addi $1 $1 1
	bnei $1 180 init
	li $1 100
loop:	ld $2 0($1)
	st $2 500($1)
	addi $1 $1 1
	jmp loop
`, false},
		{"two laps back", `
	li $1 100
	li $3 1
	st $3 0($1)
	st $3 1($1)
loop:	ld $2 0($1)
	ld $3 1($1)
	add $2 $2 $3
	st $2 2($1)
	addi $1 $1 1
	jmp loop
`, false},
		{"tripling word read back", `
	li $1 100
	li $2 1
	st $2 0($1)
loop:	ld $2 0($1)
	mult $2 $2 3
	addi $1 $1 1
	st $2 0($1)
	li $2 0
	jmp loop
`, false},
		{"branch on a word read back", `
	li $9 1000
loop:	addi $1 $1 1
	addi $9 $9 1
	st $1 0($9)
	ld $2 0($9)
	beqi $2 90 out
	li $2 0
	jmp loop
out:	halt
`, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if skipped := tailExactness(t, c.name, c.src, w); (skipped > 0) != c.skips {
				t.Errorf("skipped %d steps over all limits; want skipping %v", skipped, c.skips)
			}
		})
	}
}

// TestRunTailJumpOutMidLap: a jr through a live counter walks a table of
// jumps back to the loop head until it leaves the program. Over the table
// lengths below the exit lands in every position relative to the
// accelerator's checkpoints and probe laps, the verify lap included, where
// the probe must compare the pc before anything reads the code there. The
// second loop also stores a new word every lap, so its probes are the
// store-lap gear's.
func TestRunTailJumpOutMidLap(t *testing.T) {
	for n := 16; n <= 48; n++ {
		table := strings.Repeat("\tjmp loop\n", n)
		tailExactness(t, fmt.Sprintf("jump table %d", n), "\tli $5 2\nloop:\taddi $5 $5 1\n\tjr $5\n"+table, 3*n+20)
		tailExactness(t, fmt.Sprintf("storing jump table %d", n), "\tli $5 3\nloop:\taddi $5 $5 1\n\tst $5 300($5)\n\tjr $5\n"+table, 4*n+20)
	}
}

// FuzzRunTailCycles: a random program (internal/fuzzprog) run through
// RunTail to a random step limit ends in exactly the state Step-by-step
// execution reaches at that limit.
func FuzzRunTailCycles(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("\x1b&\x1b#\x06\x00\x02\x14"), uint16(900)) // an exact lap
	f.Add([]byte("#\x00\x05\x0f\r$"), uint16(1_000))         // an affine counter lap
	f.Add([]byte("#\x00\x05\x0f\r$"), uint16(517))           // cut off inside the skipped laps
	f.Add([]byte("\x03!\x10\x15%"), uint16(1_000))           // a lap through jal and jr
	f.Add([]byte("\v\x01\v\x16\f\x19\x0f"), uint16(1_000))   // nested branches
	f.Add([]byte("00B0011c"), uint16(700))                   // CHECKs
	f.Add([]byte("A0bA1AB901"), uint16(1_000))               // a jr out of the program
	// Stack frames the store-lap gear skips: a frame allocated in a
	// recursive call walking down the stack, one freed without being
	// allocated, and a walk cut off inside the skipped laps.
	f.Add([]byte("\xf1\xf0\xf2\xf3\xf1\x9c\xf1\xf5\x01\xf5E"), uint16(1_000))
	f.Add([]byte("\x01\xf0\xf1\xf5\f\xf1\xf2\xf3\xf5\xf2z\f"), uint16(1_000))
	f.Add([]byte("\xf1\xf3\xf4-\r\xf1\xf5\xf2\x0e\xf1\xf2"), uint16(1_000))
	f.Add([]byte("\xf1\xf3\xf4-\r\xf1\xf5\xf2\x0e\xf1\xf2"), uint16(613))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		const watchdog = 1_000
		prog, dets := fuzzprog.Program(data)
		ref := New(prog, fuzzprog.Input, Options{Watchdog: watchdog, Detectors: dets})
		n := 1 + int(limit)%(watchdog+10)
		for ref.status == StatusRunning && ref.steps < n {
			ref.Step()
		}
		var m Machine
		img, _ := runTailTo(&m, prog, dets, watchdog, ref.in, n)
		if d := diffImage(&img, ref); d != "" {
			t.Fatalf("limit %d: %s", n, d)
		}
	})
}
