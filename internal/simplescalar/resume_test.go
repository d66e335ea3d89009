package simplescalar

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/asm"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
)

// referenceTrial runs one injection from scratch: a fresh machine runs to
// the point's first execution, takes the value and runs on. A point reached
// only when the watchdog is due is not activated: the watchdog fires before
// the instruction executes.
func referenceTrial(cfg Config, inj Injection) Trial {
	m := machine.New(cfg.Program, cfg.Input, machine.Options{Watchdog: cfg.Watchdog, Detectors: cfg.Detectors})
	activated := m.RunUntil(inj.Point.PC, 1) && m.Steps() < m.Watchdog()
	if activated {
		m.SetReg(inj.Point.Reg, isa.Int(inj.Value))
	}
	res := m.Run()
	return Trial{Result: res, Activated: activated, TraceTail: m.TraceTail()}
}

// checkResumed runs injs the way RunResilient does — one PointTrials moved
// from point to point, each point's fault-free prefix run once — and
// requires every trial record to equal the from-scratch reference. It
// returns how many trials were activated.
func checkResumed(t *testing.T, cfg Config, injs []Injection) (activated int) {
	t.Helper()
	var pt *PointTrials
	for _, inj := range injs {
		if pt == nil {
			pt = NewPointTrials(cfg, inj.Point)
		} else if pt.pt != inj.Point {
			pt.moveTo(inj.Point)
		}
		got := pt.Trial(context.Background(), inj.Value)
		want := referenceTrial(cfg, inj)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: resumed trial\n%+v\nwant\n%+v", inj, got, want)
		}
		if got.Activated {
			activated++
		}
	}
	return activated
}

// TestResumedTrialsMatchReferenceTcas compares every trial of tcas campaigns
// on three inputs: two reach alt_sep_test's resolution branch (upward and
// downward advisories) and one is disabled before it.
func TestResumedTrialsMatchReferenceTcas(t *testing.T) {
	upward := tcas.UpwardInput()
	downward := upward
	downward.OwnTrackedAlt, downward.OtherTrackedAlt = 600, 500
	downward.UpSeparation, downward.DownSeparation = 500, 740
	disabled := upward
	disabled.HighConfidence = 0
	for _, c := range []struct {
		name string
		in   tcas.Inputs
		want int64
	}{{"upward", upward, tcas.UpwardRA}, {"downward", downward, tcas.DownwardRA}, {"disabled", disabled, tcas.Unresolved}} {
		t.Run(c.name, func(t *testing.T) {
			if got := tcas.Oracle(c.in); got != c.want {
				t.Fatalf("oracle advisory %d, want %d", got, c.want)
			}
			cfg := Config{
				Program:      tcas.Program(),
				Input:        c.in.Slice(),
				Watchdog:     50_000,
				Classify:     SingleValueClassifier(0, 1, 2),
				Seed:         7,
				RandomPerReg: 10,
			}
			injs := Enumerate(cfg)
			activated := checkResumed(t, cfg, injs)
			if activated == 0 || activated == len(injs) {
				t.Fatalf("%d of %d trials activated: want both kinds", activated, len(injs))
			}
			checkReportMatchesReference(t, cfg, injs)
		})
	}
}

// TestResumedTrialsMatchReferenceReplace does the same on replace, whose
// trials run thousands of instructions over a larger memory.
func TestResumedTrialsMatchReferenceReplace(t *testing.T) {
	cfg := Config{
		Program:       replace.Program(),
		Input:         replace.Input("[a-c]x*", "<&>", "zabxxc q"),
		Watchdog:      200_000,
		Classify:      SingleValueClassifier(),
		Seed:          3,
		MaxInjections: 1500,
	}
	injs := Enumerate(cfg)
	checkResumed(t, cfg, injs)
	checkReportMatchesReference(t, cfg, injs)
}

// checkReportMatchesReference requires RunResilient's tallies to be those of
// the reference trials.
func checkReportMatchesReference(t *testing.T, cfg Config, injs []Injection) {
	t.Helper()
	want := map[string]int{}
	for _, inj := range injs {
		want[cfg.Classify(referenceTrial(cfg, inj).Result)]++
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Counts, want) {
		t.Errorf("campaign tallies %v, reference %v", rep.Counts, want)
	}
}

// TestResumedTrialEdgePoints: a point first reached exactly when the
// watchdog is due stays unactivated and times out, one reached a step
// earlier is activated, and a point the fault-free run never reaches yields
// the fault-free result.
func TestResumedTrialEdgePoints(t *testing.T) {
	straight := asm.MustParse("straight", `
	nop
	nop
	li $1 5
	print $1
	halt
`).Program
	skipped := asm.MustParse("skipped", `
	li $1 1
	jmp end
	li $1 2
end:	print $1
	halt
`).Program
	cases := []struct {
		name      string
		prog      *isa.Program
		watchdog  int
		pt        Point
		activated bool
		output    string
		status    machine.Status
	}{
		{"at-watchdog", straight, 2, Point{PC: 2, Reg: 1, Dst: true}, false, "", machine.StatusExcepted},
		{"reached", straight, 4, Point{PC: 3, Reg: 1}, true, "9", machine.StatusExcepted},
		{"reached-halts", straight, 100, Point{PC: 3, Reg: 1}, true, "9", machine.StatusHalted},
		{"never-reached", skipped, 100, Point{PC: 2, Reg: 1, Dst: true}, false, "1", machine.StatusHalted},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Program: c.prog, Watchdog: c.watchdog}
			pt := NewPointTrials(cfg, c.pt)
			for _, v := range []int64{9, 9, -4} {
				inj := Injection{Point: c.pt, Value: v}
				got := pt.Trial(context.Background(), v)
				if want := referenceTrial(cfg, inj); !reflect.DeepEqual(got, want) {
					t.Fatalf("value %d: resumed trial\n%+v\nwant\n%+v", v, got, want)
				}
				if v != 9 {
					continue
				}
				if got.Activated != c.activated || got.Result.Status != c.status ||
					machine.RenderOutput(got.Result.Output) != c.output {
					t.Errorf("value %d: activated %v, status %v, output %q; want %v, %v, %q",
						v, got.Activated, got.Result.Status, machine.RenderOutput(got.Result.Output),
						c.activated, c.status, c.output)
				}
			}
		})
	}
}

// TestTrialCancelledBeforeStart: a context already done interrupts the trial
// before its first instruction, as a from-scratch run polling it would,
// even when the point's prefix has already run.
func TestTrialCancelledBeforeStart(t *testing.T) {
	cfg := Config{Program: tcas.Program(), Input: tcas.UpwardInput().Slice()}
	pt := NewPointTrials(cfg, Point{PC: 40, Reg: isa.RegSP})
	if tr := pt.Trial(context.Background(), 1); !tr.Activated {
		t.Fatalf("point not activated: %+v", tr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := pt.Trial(ctx, 1)
	if !tr.Interrupted || tr.Activated || tr.Result.Steps != 0 || tr.TraceTail != nil {
		t.Errorf("pre-cancelled trial: %+v", tr)
	}
}

// fuzzProgram decodes data into a valid program over every opcode but check,
// with registers $0-$5 and branch targets anywhere in the program, ending in
// a halt. Injected values turn its loads, stores and jr into wild addresses.
func fuzzProgram(data []byte) (*isa.Program, error) {
	at := func(j int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[j%len(data)]
	}
	ops := isa.Ops()
	n := min(len(data)/2, 40)
	b := isa.NewBuilder("fuzz")
	for i := 0; i < n; i++ {
		b.Label(fmt.Sprintf("L%d", i))
		in := isa.Instr{
			Op:  ops[int(at(4*i))%len(ops)],
			Rd:  isa.Reg(at(4*i+1) % 6),
			Rs:  isa.Reg(at(4*i+2) % 6),
			Rt:  isa.Reg(at(4*i+3) % 6),
			Imm: int64(int8(at(4*i+1) ^ at(4*i+3))),
		}
		switch in.Op.Format() {
		case isa.FormatBranch, isa.FormatBranchI, isa.FormatJump:
			in.Label = fmt.Sprintf("L%d", int(at(4*i+2))%(n+1))
		case isa.FormatStr:
			in.Str = "s"
		case isa.FormatCheck:
			in = isa.Instr{Op: isa.OpNop}
		}
		b.Emit(in)
	}
	b.Label(fmt.Sprintf("L%d", n))
	b.Halt()
	return b.Build()
}

// fuzzSeeds is FuzzCheckpointedTrial's seed corpus: data, two values and
// a watchdog.
var fuzzSeeds = []struct {
	data     []byte
	v1, v2   int64
	watchdog uint16
}{
	{[]byte{}, 7, -1, 500},
	{[]byte("\x01\x02\x03\x04\x10\x11\x12\x13\x20\x21\x22\x23\x2c\x2d\x2e\x2f"), 1 << 40, 3, 64},
	{[]byte{43, 1, 2, 3, 44, 2, 3, 4, 42, 1, 1, 1, 48, 5, 5, 5}, 12, 0, 9},
	{[]byte{45, 0, 7, 1, 47, 3, 1, 2, 46, 4, 0, 0, 50, 1, 2, 3}, -9, 2, 1000},
}

// FuzzCheckpointedTrial: on generated programs, every trial at every
// injection point — run from its point's shared prefix snapshot, or
// answered from the fault-free run — equals the from-scratch reference,
// for the fuzzed values, the extremes and the value the register already
// holds, and so does every label of the campaign's labels-only path.
func FuzzCheckpointedTrial(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.data, s.v1, s.v2, s.watchdog)
	}
	f.Fuzz(func(t *testing.T, data []byte, v1, v2 int64, watchdog uint16) {
		checkFuzzCase(t, data, v1, v2, watchdog)
	})
}

// TestFuzzSeedsAnswerEveryShortcut: the seed corpus alone drives every
// masking proof, so the fuzz target checks each against from-scratch runs.
func TestFuzzSeedsAnswerEveryShortcut(t *testing.T) {
	var hits [numShortcuts]int
	for _, s := range fuzzSeeds {
		h := checkFuzzCase(t, s.data, s.v1, s.v2, s.watchdog)
		for i := range hits {
			hits[i] += h[i]
		}
	}
	for s := unreached; s < numShortcuts; s++ {
		if hits[s] == 0 {
			t.Errorf("shortcut %v answered no trial of the seed corpus (hits %v)", s, hits)
		}
	}
}

// checkFuzzCase is one FuzzCheckpointedTrial case. It returns how many
// labels-only trials each shortcut answered.
func checkFuzzCase(t *testing.T, data []byte, v1, v2 int64, watchdog uint16) [numShortcuts]int {
	t.Helper()
	prog, err := fuzzProgram(data)
	if err != nil {
		t.Skip(err)
	}
	cfg := Config{
		Program:  prog,
		Input:    []int64{3, -7, 0, 1 << 40},
		Watchdog: 1 + int(watchdog)%2000,
		Classify: SingleValueClassifier(3, -7, 0),
	}
	var injs []Injection
	for _, pt := range EnumeratePoints(prog) {
		vals := append([]int64{v1, v2}, extremes...)
		m := machine.New(cfg.Program, cfg.Input, machine.Options{Watchdog: cfg.Watchdog})
		if m.RunUntil(pt.PC, 1) {
			if held, ok := m.Reg(pt.Reg).Concrete(); ok {
				vals = append(vals, held)
			}
		}
		for _, v := range vals {
			injs = append(injs, Injection{Point: pt, Value: v})
		}
	}
	checkResumed(t, cfg, injs)
	return checkLabels(t, cfg, injs)
}

// checkLabels runs injs through the labels-only path the way RunResilient
// does and requires every label to be the from-scratch reference's. It
// returns how many trials each shortcut answered.
func checkLabels(t *testing.T, cfg Config, injs []Injection) [numShortcuts]int {
	t.Helper()
	pt := NewPointTrials(cfg, Point{})
	for _, inj := range injs {
		pt.moveTo(inj.Point)
		got, interrupted := pt.label(context.Background(), inj.Value)
		want := classifySafely(cfg.Classify, referenceTrial(cfg, inj).Result)
		if interrupted || got != want {
			t.Fatalf("%+v: label %q (interrupted %v), reference %q", inj, got, interrupted, want)
		}
	}
	return pt.hits
}
