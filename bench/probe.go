package main

import (
	"fmt"
	"runtime"
	"time"

	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symexec"
)

// probeTime is how long each layer probe repeats its call.
const probeTime = 100 * time.Millisecond

// probeWatchdog bounds the probes' fault-free runs far above any workload
// input's length.
const probeWatchdog = 2_000_000

// Sinks keep the compiler from discarding the probed calls.
var (
	cloneSink *symexec.State
	hashSink  uint64
)

// probeLayers times the layers the workloads reach only through the
// checker, on the workload's own input: the concrete machine per
// instruction, the symbolic in-place step, and — right after injecting err
// into a register the next instruction reads, halfway through the run —
// a fork clone and a state-key hash.
func probeLayers(prog *isa.Program, input []int64, m metrics) error {
	var steps int
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		res := machine.New(prog, input, machine.Options{Watchdog: probeWatchdog}).Run()
		if res.Status != machine.StatusHalted {
			return fmt.Errorf("machine probe: %v (%v)", res.Status, res.Exception)
		}
		steps += res.Steps
	}
	m.set("machine.ns_per_instr", float64(time.Since(t0).Nanoseconds())/float64(max(steps, 1)), "ns", steps)

	opts := symexec.DefaultOptions()
	opts.Watchdog = probeWatchdog
	steps = 0
	runLen := 0
	t0 = time.Now()
	for time.Since(t0) < probeTime {
		st := symexec.NewState(prog, nil, input, opts)
		n := 0
		for st.Running() {
			if !st.StepInPlace() {
				return fmt.Errorf("symexec probe: fault-free run forked at pc %d", st.PC)
			}
			n++
		}
		steps += n
		runLen = n
	}
	m.set("symexec.step_ns", float64(time.Since(t0).Nanoseconds())/float64(max(steps, 1)), "ns", steps)

	st, err := injectedHalfway(prog, input, opts, runLen/2)
	if err != nil {
		return err
	}
	const clones = 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	for i := 0; i < clones; i++ {
		cloneSink = st.Clone()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	m.set("symexec.clone_ns", float64(d.Nanoseconds())/clones, "ns", clones)
	m.set("symexec.clone_allocs", float64(after.Mallocs-before.Mallocs)/clones, "count", clones)

	const hashes = 20_000
	t0 = time.Now()
	for i := 0; i < hashes; i++ {
		hashSink ^= st.KeyHash()
	}
	m.set("symexec.keyhash_ns", float64(time.Since(t0).Nanoseconds())/hashes, "ns", hashes)
	return nil
}

// injectedHalfway steps a fault-free symbolic run at least `at` steps in, on
// to the next instruction that reads a register other than $0, and injects
// err into that register.
func injectedHalfway(prog *isa.Program, input []int64, opts symexec.Options, at int) (*symexec.State, error) {
	st := symexec.NewState(prog, nil, input, opts)
	for n := 0; st.Running(); n++ {
		if n >= at {
			for _, r := range prog.At(st.PC).SrcRegs() {
				if r != isa.RegZero {
					st.Inject(isa.RegLoc(r))
					return st, nil
				}
			}
		}
		st.StepInPlace()
	}
	return nil, fmt.Errorf("symexec probe: no register read after step %d", at)
}
