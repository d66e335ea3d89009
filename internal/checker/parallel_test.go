package checker

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/faults"
	"symplfied/internal/machine"
	"symplfied/internal/symexec"
)

// assertParallelMatchesSequential runs the spec sequentially and with a
// worker pool and asserts the merged reports are byte-identical as JSON.
// Spec is nilled before marshaling: it carries the predicate's match
// function, which json cannot encode, and it is the one field the two runs
// legitimately differ in (the Parallelism knob itself).
func assertParallelMatchesSequential(t *testing.T, name string, spec Spec) {
	t.Helper()

	seqSpec := spec
	seqSpec.Parallelism = 1
	seq, err := RunCtx(context.Background(), seqSpec)
	if err != nil {
		t.Fatalf("%s: sequential run: %v", name, err)
	}

	parSpec := spec
	parSpec.Parallelism = 4
	par, err := RunCtx(context.Background(), parSpec)
	if err != nil {
		t.Fatalf("%s: parallel run: %v", name, err)
	}

	seq.Spec, par.Spec = nil, nil
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatalf("%s: marshal sequential report: %v", name, err)
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatalf("%s: marshal parallel report: %v", name, err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("%s: parallel report differs from sequential\nsequential: %d findings, %d states\nparallel:   %d findings, %d states",
			name, len(seq.Findings), seq.TotalStates, len(par.Findings), par.TotalStates)
	}
	if len(seq.PerInjection) != len(spec.Injections) {
		t.Errorf("%s: swept %d of %d injections", name, len(seq.PerInjection), len(spec.Injections))
	}
}

// TestParallelReportByteIdenticalTcas checks the tentpole determinism claim
// on the Section 6.2 study shape: a parallel sweep of tcas register errors
// merges to exactly the sequential report. Dedup is on so the sweep also
// exercises the hashed visited set under parallelism.
func TestParallelReportByteIdenticalTcas(t *testing.T) {
	prog := tcas.Program()
	injections := faults.RegisterInjectionsUsed(prog)
	if len(injections) > 48 {
		injections = injections[:48]
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	assertParallelMatchesSequential(t, "tcas", Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  injections,
		Exec:        exec,
		Predicate:   HaltedOutputOtherThan(tcas.UpwardRA),
		StateBudget: 1500,
		Dedup:       true,
	})
}

// TestParallelReportByteIdenticalReplace checks the same claim on the
// Section 6.4 study shape, including per-injection budget exhaustion (the
// replace explorations are deep; many injections hit the budget).
func TestParallelReportByteIdenticalReplace(t *testing.T) {
	prog := replace.Program()
	input := replace.Input("[a-c]x*", "<&>", "axx b cx")
	ref := machine.New(prog, input, machine.Options{Watchdog: 2_000_000})
	r := ref.Run()
	if r.Status != machine.StatusHalted {
		t.Fatalf("reference run %v (%v)", r.Status, r.Exception)
	}
	expected := machine.RenderOutput(r.Output)

	injections := faults.RegisterInjections(prog, true)
	if len(injections) > 24 {
		injections = injections[:24]
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 120_000
	assertParallelMatchesSequential(t, "replace", Spec{
		Program:     prog,
		Input:       input,
		Injections:  injections,
		Exec:        exec,
		Predicate:   IncorrectOutput(expected),
		StateBudget: 1200,
		MaxFindings: 3,
	})
}

// TestParallelInterrupted checks that a cancelled parallel sweep returns a
// partial report marked Interrupted instead of an error, like the
// sequential sweep does.
func TestParallelInterrupted(t *testing.T) {
	prog := tcas.Program()
	injections := faults.RegisterInjectionsUsed(prog)
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := RunCtx(ctx, Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  injections,
		Exec:        exec,
		Predicate:   HaltedOutputOtherThan(tcas.UpwardRA),
		StateBudget: 100_000,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatalf("interrupted parallel run: %v", err)
	}
	if !rep.Interrupted && len(rep.PerInjection) < len(injections) {
		t.Errorf("partial parallel run (%d/%d injections) not marked Interrupted",
			len(rep.PerInjection), len(injections))
	}
}

// TestCancelledSweepDispatchesNothing: under an already-cancelled context a
// four-worker sweep starts no injection, on every one of 1,000 repetitions,
// and reports itself Interrupted. A dispatcher that picks at random between a
// ready worker and the closed Done channel starts one now and then.
func TestCancelledSweepDispatchesNothing(t *testing.T) {
	prog := tcas.Program()
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	spec := Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  faults.RegisterInjectionsUsed(prog)[:16],
		Exec:        exec,
		Predicate:   HaltedOutputOtherThan(tcas.UpwardRA),
		StateBudget: 1500,
		Parallelism: 4,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for rep := 0; rep < 1000; rep++ {
		r, err := RunCtx(ctx, spec)
		if err != nil {
			t.Fatalf("repetition %d: %v", rep, err)
		}
		if len(r.PerInjection) != 0 || !r.Interrupted {
			t.Fatalf("repetition %d: cancelled sweep ran %d injections (interrupted %v)", rep, len(r.PerInjection), r.Interrupted)
		}
	}
}
