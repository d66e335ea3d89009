package checker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/asm"
	"symplfied/internal/faults"
	"symplfied/internal/fuzzprog"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symexec"
)

// exploreStepwise is exploreInjection without the concrete hand-off: every
// step of every state goes through StepInPlace or Successors. It is the
// reference the hand-off must reproduce, report for report.
func exploreStepwise(ctx context.Context, spec Spec, inj faults.Injection) (InjectionReport, error) {
	ir := InjectionReport{Injection: inj, Outcomes: make(map[symexec.Outcome]int)}
	budget := spec.effectiveBudget()
	m := machine.New(spec.Program, spec.Input, machine.Options{
		Watchdog:  spec.Exec.Watchdog,
		Detectors: spec.Detectors,
	})
	if !m.RunUntil(inj.PC, inj.Occurrence) {
		return ir, nil
	}
	ir.Activated = true
	st := symexec.FromMachine(m, spec.Detectors, spec.Exec)
	st.Stats = &ir.Exec
	frontier, err := inj.Apply(st)
	if err != nil {
		return ir, err
	}
	var visited map[uint64]struct{}
	var keyer *symexec.Keyer
	if spec.Dedup {
		visited = make(map[uint64]struct{})
		keyer = symexec.NewKeyer()
	}
	ir.Exec.ObserveFrontier(len(frontier))
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		if visited != nil {
			k := keyer.Hash(cur)
			if _, seen := visited[k]; seen {
				ir.Exec.CountDedup()
				continue
			}
			visited[k] = struct{}{}
		}
		for {
			if ir.StatesExplored >= budget {
				ir.BudgetExhausted = true
				return ir, nil
			}
			if ir.StatesExplored&ctxCheckMask == 0 {
				if cerr := ctx.Err(); cerr != nil {
					ir.Interrupted = true
					ir.TimedOut = errors.Is(cerr, context.DeadlineExceeded)
					return ir, nil
				}
			}
			ir.StatesExplored++
			ir.Truncated = ir.Truncated || cur.Truncated
			if !cur.Running() {
				ir.TerminalStates++
				ir.Outcomes[cur.Outcome()]++
				if id, ok := cur.FiredDetector(); ok {
					if ir.DetectorHits == nil {
						ir.DetectorHits = make(map[int64]int)
					}
					ir.DetectorHits[id]++
				}
				ir.Exec.ObserveDepth(int64(cur.Steps))
				if spec.Predicate.Match(cur) && (spec.MaxFindings == 0 || len(ir.Findings) < spec.MaxFindings) {
					ir.Findings = append(ir.Findings, newFinding(inj, cur, spec.DiscardStates))
				}
				break
			}
			if cur.StepInPlace() {
				continue
			}
			ir.Exec.ObserveDepth(int64(cur.Steps))
			frontier = append(frontier, cur.Successors()...)
			break
		}
		ir.Exec.ObserveFrontier(len(frontier))
	}
	return ir, nil
}

// exploreBoth explores inj with the checker and with exploreStepwise, and
// fails t unless the two injection reports are identical: every tally,
// BudgetExhausted, Exec, and every finding with its trace and, unless
// DiscardStates dropped it, its terminal state.
func exploreBoth(t *testing.T, spec Spec, inj faults.Injection) InjectionReport {
	t.Helper()
	want, werr := exploreStepwise(context.Background(), spec, inj)
	got := InjectionReport{Injection: inj, Outcomes: make(map[symexec.Outcome]int)}
	gerr := exploreInjection(context.Background(), spec, inj, &got)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%v, budget %d: error %v, stepwise %v", inj, spec.StateBudget, gerr, werr)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("%v, budget %d: report drift\n got %s\nwant %s", inj, spec.StateBudget, gj, wj)
	}
	for i, f := range got.Findings {
		g, w := f.State, want.Findings[i].State
		if (g == nil) != (w == nil) {
			t.Fatalf("%v, budget %d: finding %d keeps state %v, stepwise %v", inj, spec.StateBudget, i, g != nil, w != nil)
		}
		if g == nil {
			continue // DiscardStates
		}
		if g.Key() != w.Key() || !reflect.DeepEqual(g.Exc, w.Exc) || g.Trace.Render() != w.Trace.Render() {
			t.Fatalf("%v, budget %d: finding %d's state drifted\n got %s %+v\nwant %s %+v",
				inj, spec.StateBudget, i, g.Key(), g.Exc, w.Key(), w.Exc)
		}
	}
	return want
}

// TestConcreteTailExactAtEveryBudget: for one tcas injection, one replace
// injection, a tail that jumps out of the program, three hangs whose laps the
// machine skips (an exact spin, an affine counter and tcas's stack walk) and
// every scenario of TestTraceGolden (CHECK passes and firings, the watchdog,
// end of input, undefined loads), exploring with the concrete hand-off
// yields exactly the stepwise report at every state budget from 1 to the
// full state count, so the budget cuts off at the same state, inside a
// skipped lap too.
func TestConcreteTailExactAtEveryBudget(t *testing.T) {
	type search struct {
		name string
		spec Spec
		inj  faults.Injection
	}
	var searches []search
	for _, a := range []struct {
		prog     *isa.Program
		input    []int64
		watchdog int
		reg      isa.Reg
		pc       int
	}{
		// A store through the erroneous stack pointer: 20 resolutions,
		// each running on to a halt or a crash.
		{tcas.Program(), tcas.UpwardInput().Slice(), 2_000, 29, 36},
		// The same in replace: 52 store resolutions, two of them halting.
		{replace.Program(), replace.Input("[a-c]x*", "<&>", "axx b cx"), 4_000, 29, 493},
	} {
		exec := symexec.DefaultOptions()
		exec.Watchdog = a.watchdog
		searches = append(searches, search{a.prog.Name,
			Spec{Program: a.prog, Input: a.input, Exec: exec, Predicate: anyTerminal},
			regInj(a.pc, a.reg)})
	}
	// A tail that jumps out of the program: the fetch raises without
	// executing an instruction, and still uses a state.
	escape := traceScenario{
		name:  "escape",
		src:   "\tread $1\n\tbeqi $1 3 skip\n\tli $1 0\nskip:\tli $2 50\n\tjr $2\n",
		input: []int64{0},
		inj:   []faults.Injection{regInj(1, 1)},
	}
	// Two hangs the machine's cycle accelerator skips: an exact spin and an
	// affine counter lap, so budgets also cut off inside skipped laps.
	spin := traceScenario{
		name:  "spin",
		src:   "\tread $1\n\tbeqi $1 3 spin\n\tli $1 0\n\thalt\nspin:\tli $2 7\n\tjmp spin\n",
		input: []int64{0},
		inj:   []faults.Injection{regInj(1, 1)},
	}
	counter := traceScenario{
		name:  "counter",
		src:   "\tread $1\n\tbeqi $1 3 count\n\tli $1 0\n\thalt\ncount:\taddi $2 $2 1\n\taddi $3 $3 -2\n\tjmp count\n",
		input: []int64{0},
		inj:   []faults.Injection{regInj(1, 1)},
	}
	walk := traceScenario{
		name:  "tcas stack walk",
		src:   tcasStackWalk(),
		input: []int64{0},
		inj:   []faults.Injection{regInj(1, 1)},
		exec:  func(o *symexec.Options) { o.Watchdog = 400 },
	}
	skipping := map[string]bool{spin.name: true, counter.name: true, walk.name: true}
	for _, sc := range append([]traceScenario{escape, spin, counter, walk}, traceScenarios...) {
		u := asm.MustParse(sc.name, sc.src)
		exec := symexec.DefaultOptions()
		exec.Watchdog = 200
		if sc.exec != nil {
			sc.exec(&exec)
		}
		for _, inj := range sc.inj {
			searches = append(searches, search{sc.name,
				Spec{Program: u.Program, Detectors: u.Detectors, Input: sc.input, Exec: exec, Predicate: anyTerminal},
				inj})
		}
	}
	for _, s := range searches {
		skipped, storeLaps := liveTailSkipped.Value(), liveTailStoreLaps.Value()
		full := exploreBoth(t, s.spec, s.inj)
		if skipping[s.name] && liveTailSkipped.Value() == skipped {
			t.Errorf("%s %v: the concrete tail skipped no steps", s.name, s.inj)
		}
		if s.name == walk.name && liveTailStoreLaps.Value() == storeLaps {
			t.Errorf("%s %v: the store-lap gear skipped no steps", s.name, s.inj)
		}
		if full.BudgetExhausted || full.StatesExplored == 0 {
			t.Fatalf("%s %v: %d states, budget exhausted %v", s.name, s.inj, full.StatesExplored, full.BudgetExhausted)
		}
		for budget := 1; budget <= full.StatesExplored; budget++ {
			s.spec.StateBudget = budget
			if ir := exploreBoth(t, s.spec, s.inj); ir.BudgetExhausted != (budget < full.StatesExplored) {
				t.Fatalf("%s %v, budget %d of %d: budget exhausted %v", s.name, s.inj, budget, full.StatesExplored, ir.BudgetExhausted)
			}
		}
	}
}

// tcasStackWalk is tcas with a prologue in front that, when its input reads
// 3, defines tcas's globals from the upward input, sets up the stack and
// returns into Non_Crossing_Biased_Climb just past its frame allocation,
// as a corrupted $31 at that function's return does: each lap saves $31,
// calls the leaf functions, reloads $31, frees a frame it never allocated
// and returns to the same place, one frame further up the stack.
func tcasStackWalk() string {
	prologue := func(target int) string {
		var b strings.Builder
		b.WriteString("\tread $1\n\tbeqi $1 3 walk\n\thalt\nwalk:\tli $29 10000\n")
		words := append(tcas.UpwardInput().Slice(), 400, 500, 640, 740)
		for i, v := range words {
			addr := tcas.GlobalBase + i
			if i >= 12 {
				addr = tcas.TableBase + i - 12
			}
			fmt.Fprintf(&b, "\tli $8 %d\n\tst $8 %d($0)\n", v, addr)
		}
		fmt.Fprintf(&b, "\tli $31 %d\n\tjr $31\n", target)
		return b.String()
	}
	target := asm.MustParse("walk", prologue(0)+tcas.Source).Program.Labels["NCBC"] + 1
	return prologue(target) + tcas.Source
}

// FuzzConcreteTail: random programs (internal/fuzzprog) with one register
// injection, transient or stuck-at, explored with the concrete hand-off and
// stepwise, must yield identical injection reports at any budget, with and
// without deduplication and fan-out caps. knobs picks the rest of the spec:
// bit 0 a library predicate, which the explorer hands a jr fan-out's scratch
// children unbuilt, instead of anyTerminal, which makes it build each one;
// bit 1 DiscardStates; bits 2-3 MaxFindings (0, 1, 2 or 5).
func FuzzConcreteTail(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, uint16(300), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{8, 11, 9, 15, 19, 39, 14, 9}, uint16(2_000), uint8(1), uint8(0), uint8(0))
	f.Add([]byte{8, 13, 14, 16, 9, 17, 18, 17}, uint16(77), uint8(6), uint8(5), uint8(0))
	f.Add([]byte{8, 12, 15, 19, 59, 0, 79}, uint16(999), uint8(9), uint8(0), uint8(0))
	f.Add([]byte{13, 8, 17, 9, 18, 13, 14}, uint16(4_000), uint8(2), uint8(2), uint8(0))
	f.Add([]byte("90001000"), uint16(77), uint8(6), uint8(5), uint8(0))    // a capped fan-out's tail
	f.Add([]byte("A0bA1AB901"), uint16(300), uint8(3), uint8(0), uint8(0)) // a tail's jr out of the program
	f.Add([]byte("00B0011c"), uint16(375), uint8(3), uint8('4'), uint8(0)) // a CHECK in a tail
	// Tails the machine's cycle accelerator skips, run to the end and cut
	// off by the budget inside the skipped laps: an exact spin and an
	// affine counter lap.
	f.Add([]byte("\x1b&\x1b#\x06\x00\x02\x14"), uint16(4_999), uint8(83), uint8(0), uint8(0))
	f.Add([]byte("\x1b&\x1b#\x06\x00\x02\x14"), uint16(150), uint8(83), uint8(0), uint8(0))
	f.Add([]byte("#\x00\x05\x0f\r$"), uint16(4_999), uint8(66), uint8(0), uint8(0))
	f.Add([]byte("#\x00\x05\x0f\r$"), uint16(200), uint8(66), uint8(0), uint8(0))
	// A jr fan-out run in place under a library predicate: cut off by the
	// budget after its first children, with and without DiscardStates; and
	// run to the end while MaxFindings 1 (then 2, discarding states) stops
	// keeping its matching children partway.
	f.Add([]byte("\xed\x12\xb4W)\x98\x8e/fN"), uint16(312), uint8(6), uint8(0), uint8(1))
	f.Add([]byte("\xed\x12\xb4W)\x98\x8e/fN"), uint16(312), uint8(6), uint8(0), uint8(3))
	f.Add([]byte("Z\xff\xa10\xa1M\x95s\x9a"), uint16(4_999), uint8(90), uint8(0), uint8(5))
	f.Add([]byte("\x02\xdb\a\x11\xef\xa3\x1e}b]\x92"), uint16(4_999), uint8(102), uint8(0), uint8(11))
	// Tails whose stack-frame laps the store-lap gear skips, run to the end
	// and cut off by the budget inside the skipped laps.
	f.Add([]byte("\f\xc0\x05\x02\x11\r\xf1\xf0\x0f\x0f\xf2"), uint16(4_999), uint8(110), uint8(0), uint8(4))
	f.Add([]byte("\f\xc0\x05\x02\x11\r\xf1\xf0\x0f\x0f\xf2"), uint16(1_500), uint8(110), uint8(0), uint8(4))
	f.Add([]byte("s\x11\x05\x0f\xf0\xf0\xf2\xf1\xf1\x11\x02\xf1"), uint16(4_999), uint8(40), uint8(0), uint8(11))
	f.Add([]byte("\x12\x0f\xf4\xf1\r\xf4\xf4\x02\xf4\xf2\xf2"), uint16(200), uint8(76), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, budget uint16, pick, caps, knobs uint8) {
		spec, inj := fuzzTailCase(data, budget, pick, caps, knobs)
		exploreBoth(t, spec, inj)
	})
}

// fuzzTailCase decodes one FuzzConcreteTail input into a search.
func fuzzTailCase(data []byte, budget uint16, pick, caps, knobs uint8) (Spec, faults.Injection) {
	prog, dets := fuzzprog.Program(data)
	exec := symexec.DefaultOptions()
	exec.Watchdog = 300
	exec.MaxControlTargets = int(caps % 4)
	exec.MaxMemTargets = int(caps>>2) % 4
	spec := Spec{
		Program:       prog,
		Detectors:     dets,
		Input:         fuzzprog.Input,
		Exec:          exec,
		Predicate:     anyTerminal,
		StateBudget:   1 + int(budget)%5_000,
		Dedup:         pick&1 != 0,
		DiscardStates: knobs&2 != 0,
		MaxFindings:   []int{0, 1, 2, 5}[knobs>>2&3],
	}
	if knobs&1 != 0 {
		spec.Predicate = fuzzLibraryPredicate
	}
	inj := regInj(int(pick>>3)%prog.Len(), isa.Reg(1+int(pick>>1)%5))
	inj.Permanent = pick&0x80 != 0
	return spec, inj
}

// fuzzLibraryPredicate is a result-only library predicate that keeps some
// terminals and drops others, composed so the mark must survive Undetected
// and Any.
var fuzzLibraryPredicate = Undetected(Any(OutcomeIs(symexec.OutcomeHang), HaltedOutputOtherThan(0)))

// TestConcreteTailCounter: the live symplfied_concrete_tail_states_total
// counter moves during a plain tcas sweep, by no more than the states the
// sweep explored, symplfied_concrete_tail_skipped_steps_total moves by no
// more than the tail states, and symplfied_concrete_tail_store_lap_steps_total
// by no more than the skipped steps: the sweep's hangs skip laps, and its
// stack walks skip laps that store.
func TestConcreteTailCounter(t *testing.T) {
	prog := tcas.Program()
	exec := symexec.DefaultOptions()
	exec.Watchdog = 2_000
	states, tails, skips, storeLaps := liveStates.Value(), liveTailStates.Value(), liveTailSkipped.Value(), liveTailStoreLaps.Value()
	rep, err := Run(Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  faults.RegisterInjections(prog, true),
		Exec:        exec,
		Predicate:   anyTerminal,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ran, explored := liveTailStates.Value()-tails, liveStates.Value()-states
	if ran <= 0 || ran > explored || explored != int64(rep.TotalStates) {
		t.Errorf("concrete tails ran %d states of %d explored (report: %d)", ran, explored, rep.TotalStates)
	}
	skipped := liveTailSkipped.Value() - skips
	if skipped <= 0 || skipped > ran {
		t.Errorf("concrete tails skipped %d of their %d states", skipped, ran)
	}
	if stored := liveTailStoreLaps.Value() - storeLaps; stored <= 0 || stored > skipped {
		t.Errorf("the store-lap gear skipped %d of the tails' %d skipped steps", stored, skipped)
	}
}
