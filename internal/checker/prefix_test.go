package checker

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/fuzzprog"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symexec"
)

// TestPrefixRecordMatchesRunUntil: for every pc at occurrences 0 (which
// means 1) to 3, prefixState answers an injection exactly as a fresh
// machine running RunUntil does — not activated, or activated in the same
// state — on tcas, replace, factorial and random programs, under the
// default watchdog, one that cuts the fault-free run in half, and one that
// stops it right at a breakpoint: the pc the run is about to execute when
// it reaches the watchdog, at that occurrence, is activated. The record,
// not a machine, answers the ones not activated when the run is shorter
// than maxPrefixCount steps.
func TestPrefixRecordMatchesRunUntil(t *testing.T) {
	type program struct {
		name  string
		prog  *isa.Program
		dets  *detector.Table
		input []int64
	}
	fprog, fdets := factorial.WithDetectors()
	programs := []program{
		{"tcas", tcas.Program(), nil, tcas.UpwardInput().Slice()},
		{"replace", replace.Program(), nil, replace.Input("[a-c]x*", "<&>", "axx b cx")},
		{"factorial", fprog, fdets, []int64{5}},
	}
	for _, data := range []string{"\x1b&\x1b#\x06\x00\x02\x14", "A0bA1AB901", "00B0011c", "\x03!\x10\x15%", "\xf0\xf1\xf2\xf3\xf4\xf5"} {
		p, d := fuzzprog.Program([]byte(data))
		programs = append(programs, program{fmt.Sprintf("fuzz %q", data), p, d, fuzzprog.Input})
	}
	for _, p := range programs {
		full := machine.New(p.prog, p.input, machine.Options{Watchdog: 5_000, Detectors: p.dets})
		full.Run()
		for _, watchdog := range []int{0, max(full.Steps()/2, 1), max(full.Steps()/3, 1) + 1} {
			exec := symexec.DefaultOptions()
			exec.Watchdog = watchdog
			spec := Spec{Program: p.prog, Detectors: p.dets, Input: p.input, Exec: exec}
			fresh := func() *machine.Machine {
				return machine.New(p.prog, p.input, machine.Options{Watchdog: watchdog, Detectors: p.dets})
			}
			run := fresh()
			run.Run()
			if rec := prefixFor(&spec); (rec.visits != nil) != (run.Steps() < maxPrefixCount) {
				t.Fatalf("%s, watchdog %d: a run of %d steps recorded visits %v", p.name, watchdog, run.Steps(), rec.visits != nil)
			}
			check := func(pc, occurrence int) {
				t.Helper()
				inj := faults.Injection{Class: faults.ClassRegister, PC: pc, Occurrence: occurrence, Loc: isa.RegLoc(1)}
				m := fresh()
				activated := m.RunUntil(pc, occurrence)
				got := prefixState(&spec, inj)
				if (got != nil) != activated {
					t.Fatalf("%s, watchdog %d, pc %d occurrence %d: activated %v, RunUntil %v", p.name, watchdog, pc, occurrence, got != nil, activated)
				}
				if !activated {
					return
				}
				want := symexec.FromMachine(m, p.dets, exec)
				if got.Key() != want.Key() || got.OutputString() != want.OutputString() || got.Steps != want.Steps {
					t.Fatalf("%s, watchdog %d, pc %d occurrence %d: state\n got %s\nwant %s", p.name, watchdog, pc, occurrence, got.Key(), want.Key())
				}
			}
			for pc := -1; pc <= p.prog.Len(); pc++ {
				for occurrence := 0; occurrence <= 3; occurrence++ {
					check(pc, occurrence)
				}
			}
			if watchdog == 0 {
				continue
			}
			// The breakpoint at the watchdog: the pc the run is about to
			// execute after watchdog steps, at its occurrence there.
			m, visits := fresh(), map[int]int{}
			for m.Status() == machine.StatusRunning && m.Steps() < watchdog {
				visits[m.PC()]++
				m.Step()
			}
			if m.Status() == machine.StatusRunning {
				check(m.PC(), visits[m.PC()]+1)
			}
		}
	}
}

// TestPrefixRecordSharedByParallelSweep: a parallel tcas sweep, whose
// workers share one fault-free record (run it under -race), reports exactly
// what a sequential sweep does.
func TestPrefixRecordSharedByParallelSweep(t *testing.T) {
	prog := tcas.Program()
	exec := symexec.DefaultOptions()
	exec.Watchdog = 1_500
	in := tcas.UpwardInput()
	in.OtherTrackedAlt++ // an input no other test has recorded
	spec := Spec{
		Program:       prog,
		Input:         in.Slice(),
		Injections:    faults.RegisterInjections(prog, true),
		Exec:          exec,
		Predicate:     anyTerminal,
		StateBudget:   20_000,
		DiscardStates: true,
	}
	var reports [2][]byte
	for i, workers := range []int{4, 1} {
		spec.Parallelism = workers
		rep, err := RunCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		rep.Spec = nil
		reports[i], _ = json.Marshal(rep)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Errorf("parallel sweep drifted from the sequential one")
	}
}

// TestPrefixRecordInputsCollide: two inputs whose hashes collide keep
// records of their own: factorial's loop runs five times on the one and
// six on the other.
func TestPrefixRecordInputsCollide(t *testing.T) {
	prog := factorial.Plain()
	const prime = 1099511628211
	h0 := uint64(14695981039346656037)
	a, b := []int64{5, 0}, []int64{6, 0}
	b[1] = int64(((h0 ^ 6) * prime) ^ ((h0 ^ 5) * prime))
	if hashInput(a) != hashInput(b) {
		t.Fatalf("inputs %v and %v do not collide", a, b)
	}
	for _, in := range [][]int64{a, b} {
		spec := Spec{Program: prog, Input: in}
		for pc := 0; pc < prog.Len(); pc++ {
			inj := faults.Injection{Class: faults.ClassRegister, PC: pc, Occurrence: 6, Loc: isa.RegLoc(1)}
			m := machine.New(prog, in, machine.Options{})
			if got, want := prefixState(&spec, inj) != nil, m.RunUntil(pc, 6); got != want {
				t.Fatalf("input %v, pc %d occurrence 6: activated %v, RunUntil %v", in, pc, got, want)
			}
		}
	}
}

// TestPrefixMemoBounded: recording the fault-free runs of 1,000 distinct
// inputs keeps at most maxPrefixRecords of them.
func TestPrefixMemoBounded(t *testing.T) {
	prog := factorial.Plain()
	for n := int64(0); n < 1_000; n++ {
		prefixFor(&Spec{Program: prog, Input: []int64{n % 12, n}})
	}
	prefixes.Lock()
	defer prefixes.Unlock()
	records := 0
	for _, rs := range prefixes.records {
		records += len(rs)
	}
	if records > maxPrefixRecords || len(prefixes.order) != records {
		t.Errorf("memo holds %d records under %d keys in order, bound %d", records, len(prefixes.order), maxPrefixRecords)
	}
}
