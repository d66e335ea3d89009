package crossval

import (
	"reflect"
	"testing"

	"symplfied/internal/fuzzprog"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/symexec"
)

// fuzzWatchdog bounds fuzz programs that loop: both engines must classify
// them as the same hang at the same step.
const fuzzWatchdog = 10_000

// FuzzConcreteSymbolicParity: on fault-free programs the symbolic engine
// must behave exactly like the concrete machine — never fork, and end in the
// same state: pc, every register and memory word, output, step count, and
// the exception's kind, pc, detail and detector. Any divergence here is an
// interpreter bug, not an abstraction artifact.
//
// A second run takes k symbolic steps and then hands the state to the
// concrete machine in chunks (symexec.State.RunConcrete), the way the
// checker runs err-free tails, with StepInPlace running every CHECK. It
// must end in the state the all-symbolic run reached — trace notes and
// watchdog tally included — having used the same number of states.
func FuzzConcreteSymbolicParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add([]byte("\x08\x09\x0b\x05\x0f\x02")) // read/print/branch/jump mix
	f.Add([]byte{4, 4, 4, 3, 3, 1})           // arithmetic incl. div
	f.Add([]byte{15, 15, 15})                 // jump-only (loops)
	f.Add([]byte{13, 14, 13, 14, 9})          // memory traffic
	f.Add([]byte{16, 9, 17, 16, 37, 9})       // calls and returns
	f.Add([]byte{18, 17, 38, 57, 18, 77})     // jr to computed targets
	f.Add([]byte{19, 39, 59, 79, 0, 13, 19})  // CHECKs: pass, fire, undefined word, unknown
	f.Add([]byte("0c700"))                    // a CHECK in a loop, handed off
	f.Add([]byte("A19"))                      // a handed-off jr out of the program
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, dets := fuzzprog.Program(data)
		opts := symexec.Options{Watchdog: fuzzWatchdog, AffineTracking: true}

		m := machine.New(prog, fuzzprog.Input, machine.Options{Watchdog: fuzzWatchdog, Detectors: dets})
		m.Run()

		st := symexec.NewState(prog, dets, fuzzprog.Input, opts)
		st.Stats = new(obs.ExecStats)
		states := 0
		for st.Running() {
			if !st.StepInPlace() {
				t.Fatalf("symbolic engine forked on a fault-free program at pc %d", st.PC)
			}
			states++
		}
		sameAsMachine(t, st, m)

		at := func(j int) int {
			if len(data) == 0 {
				return 0
			}
			return int(data[j%len(data)])
		}
		k := at(0) % 64
		chunk := []int{1, 2, 3, 7, 64, 1 << 20}[at(1)%6]
		ho := symexec.NewState(prog, dets, fuzzprog.Input, opts)
		ho.Stats = new(obs.ExecStats)
		var tail machine.Machine
		used := 0
		for ho.Running() {
			if used >= k && ho.ErrFree() {
				if n, _ := ho.RunConcrete(&tail, chunk); n > 0 {
					if n > chunk {
						t.Fatalf("hand-off used %d states, more than its %d", n, chunk)
					}
					used += n
					continue
				}
			}
			if !ho.StepInPlace() {
				t.Fatalf("symbolic engine forked on a fault-free program at pc %d", ho.PC)
			}
			used++
		}
		if used != states {
			t.Errorf("hand-off after %d steps (chunks of %d) used %d states, stepwise %d", k, chunk, used, states)
		}
		if got, want := ho.Key(), st.Key(); got != want {
			t.Errorf("hand-off state drift:\n got %s\nwant %s", got, want)
		}
		if !reflect.DeepEqual(ho.Exc, st.Exc) {
			t.Errorf("hand-off exception %+v, stepwise %+v", ho.Exc, st.Exc)
		}
		if got, want := ho.Trace.Events(), st.Trace.Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("hand-off trace drift:\n got %v\nwant %v", got, want)
		}
		if *ho.Stats != *st.Stats {
			t.Errorf("hand-off stats %+v, stepwise %+v", *ho.Stats, *st.Stats)
		}
	})
}

// sameAsMachine fails t unless the terminated symbolic state st and the
// stopped machine m agree on everything a run leaves behind.
func sameAsMachine(t *testing.T, st *symexec.State, m *machine.Machine) {
	t.Helper()
	res := machine.Result{Status: m.Status(), Exception: m.Exception(), Output: m.Output(), Steps: m.Steps()}
	if got, want := st.Outcome(), ConcreteOutcome(res); got != want {
		t.Errorf("outcome drift: symbolic %v, concrete %v (%v)", got, want, res.Exception)
	}
	if (st.Exc == nil) != (res.Exception == nil) || st.Exc != nil && *st.Exc != *res.Exception {
		t.Errorf("exception drift: symbolic %+v, concrete %+v", st.Exc, res.Exception)
	}
	if got, want := st.OutputString(), machine.RenderOutput(res.Output); got != want {
		t.Errorf("output drift:\nsymbolic %q\nconcrete %q", got, want)
	}
	if st.Steps != res.Steps {
		t.Errorf("step-count drift: symbolic %d, concrete %d", st.Steps, res.Steps)
	}
	if st.PC != m.PC() {
		t.Errorf("pc drift: symbolic %d, concrete %d", st.PC, m.PC())
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if st.Regs[r] != m.Reg(r) {
			t.Errorf("%s drift: symbolic %v, concrete %v", r, st.Regs[r], m.Reg(r))
		}
	}
	var mem isa.Memory
	m.CopyMem(&mem)
	if st.Mem.Len() != mem.Len() {
		t.Errorf("memory drift: symbolic defines %d words, concrete %d", st.Mem.Len(), mem.Len())
	}
	mem.Range(func(addr int64, v isa.Value) bool {
		if got, ok := st.Mem.Load(addr); !ok || got != v {
			t.Errorf("memory drift at %d: symbolic %v (defined %v), concrete %v", addr, got, ok, v)
		}
		return true
	})
}
