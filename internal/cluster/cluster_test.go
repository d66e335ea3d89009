package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/checker"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/simplescalar"
	"symplfied/internal/symexec"
)

func sampleInjections(n int) []faults.Injection {
	out := make([]faults.Injection, n)
	for i := range out {
		out[i] = faults.Injection{Class: faults.ClassRegister, PC: n - 1 - i, Loc: isa.RegLoc(1)}
	}
	return out
}

func TestSplitPartitions(t *testing.T) {
	injs := sampleInjections(10)
	tasks := Split(injs, 3)
	if len(tasks) != 3 {
		t.Fatalf("%d tasks", len(tasks))
	}
	total := 0
	for i, task := range tasks {
		if task.ID != i {
			t.Errorf("task %d has ID %d", i, task.ID)
		}
		if len(task.Injections) == 0 {
			t.Errorf("task %d empty", i)
		}
		total += len(task.Injections)
		lastPC := -1
		for _, inj := range task.Injections {
			if inj.PC < lastPC {
				t.Errorf("task %d injections not PC-ordered", i)
			}
			lastPC = inj.PC
		}
	}
	if total != 10 {
		t.Errorf("partition lost injections: %d", total)
	}
}

// TestSplitBalance asserts the two balance properties the decomposition
// promises: task sizes differ by at most one injection, and breakpoint-PC
// ranges are interleaved so no task sweeps only the expensive late-program
// section. With PCs 0..29 split 4 ways, every task must hold injections from
// both the low and the high half of the program.
func TestSplitBalance(t *testing.T) {
	injs := sampleInjections(30)
	tasks := Split(injs, 4)
	if len(tasks) != 4 {
		t.Fatalf("%d tasks", len(tasks))
	}
	minSize, maxSize := len(injs), 0
	for _, task := range tasks {
		if n := len(task.Injections); n < minSize {
			minSize = n
		}
		if n := len(task.Injections); n > maxSize {
			maxSize = n
		}
		low, high := false, false
		for _, inj := range task.Injections {
			if inj.PC < 15 {
				low = true
			} else {
				high = true
			}
		}
		if !low || !high {
			t.Errorf("task %d sweeps only one half of the program (low=%v high=%v): PC range not interleaved",
				task.ID, low, high)
		}
	}
	if maxSize-minSize > 1 {
		t.Errorf("task sizes unbalanced: min %d, max %d", minSize, maxSize)
	}
}

// TestRunTaskPoolEquivalence proves the distributed harness's core identity:
// pooling the per-injection reports RunTaskCtx shipped reconstructs the
// exact TaskReport the executing side computed, for a clean sweep, a
// budget-bounded sweep, and a finding-capped sweep.
func TestRunTaskPoolEquivalence(t *testing.T) {
	spec := factorialSpec(t)
	injs := faults.RegisterInjections(spec.Program, true)
	task := Split(injs, 1)[0]
	for _, tc := range []struct {
		name             string
		budget, findings int
	}{
		{"clean", 0, 0},
		{"budget-bounded", 120, 0},
		{"finding-capped", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, irs := RunTaskCtx(context.Background(), spec, task, tc.budget, tc.findings)
			pooled := PoolReports(task, irs, tc.findings)
			if rep.Completed != pooled.Completed || rep.Interrupted != pooled.Interrupted ||
				rep.InjectionsDone != pooled.InjectionsDone || rep.StatesExplored != pooled.StatesExplored ||
				rep.Panics != pooled.Panics || len(rep.Findings) != len(pooled.Findings) {
				t.Errorf("pooled report diverges:\n ran    %+v\n pooled %+v", rep, pooled)
			}
		})
	}
}

// TestCancelledTaskShipsNothing: under an already-cancelled context a
// four-worker task sweep explores no injection and ships no report, on every
// one of 1,000 repetitions.
func TestCancelledTaskShipsNothing(t *testing.T) {
	spec := factorialSpec(t)
	spec.Parallelism = 4
	task := Split(faults.RegisterInjections(spec.Program, true), 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for rep := 0; rep < 1000; rep++ {
		r, irs := RunTaskCtx(ctx, spec, task, 0, 0)
		if len(irs) != 0 || !r.Interrupted || r.StatesExplored != 0 {
			t.Fatalf("repetition %d: cancelled task shipped %d injection reports (interrupted %v, %d states)",
				rep, len(irs), r.Interrupted, r.StatesExplored)
		}
	}
}

// TestRunTaskWidthIdentity pins RunTaskCtx's replay loop: a task swept by
// one worker (each injection explored lazily with the budget and finding cap
// left at its turn) and by four (speculative full-budget runs, re-running
// only the injection that overran) returns JSON-identical task reports and
// shipped injection reports, for budgets that bind in the first injection,
// mid-sweep (2,000 states) and never (20,000), a finding cap, and both at
// once.
func TestRunTaskWidthIdentity(t *testing.T) {
	tcasSpec := func() (checker.Spec, Task) {
		prog := tcas.Program()
		exec := symexec.DefaultOptions()
		exec.Watchdog = 4000
		spec := checker.Spec{
			Program:       prog,
			Input:         tcas.UpwardInput().Slice(),
			Exec:          exec,
			Predicate:     checker.HaltedOutputOtherThan(tcas.UpwardRA),
			DiscardStates: true,
		}
		return spec, Split(faults.RegisterInjectionsUsed(prog)[:24], 1)[0]
	}
	factSpec := func() (checker.Spec, Task) {
		spec := factorialSpec(t)
		spec.DiscardStates = true
		return spec, Split(faults.RegisterInjections(spec.Program, true), 1)[0]
	}
	for _, app := range []struct {
		name string
		make func() (checker.Spec, Task)
	}{{"factorial", factSpec}, {"tcas", tcasSpec}} {
		for _, tc := range []struct {
			name             string
			budget, findings int
		}{
			{"budget-120", 120, 0},
			{"budget-20000", 20_000, 0},
			{"cap-2", 0, 2},
			{"budget-120-cap-2", 120, 2},
			{"budget-20000-cap-2", 20_000, 2},
			{"budget-2000", 2000, 0},
			{"budget-2000-cap-8", 2000, 8},
		} {
			t.Run(app.name+"/"+tc.name, func(t *testing.T) {
				var got [2][]byte
				for k, par := range []int{1, 4} {
					spec, task := app.make()
					spec.Parallelism = par
					rep, irs := RunTaskCtx(context.Background(), spec, task, tc.budget, tc.findings)
					b, err := json.Marshal(struct {
						Report  TaskReport
						Shipped []checker.InjectionReport
					}{rep, irs})
					if err != nil {
						t.Fatal(err)
					}
					got[k] = b
				}
				if !bytes.Equal(got[0], got[1]) {
					t.Errorf("four-worker task differs from one-worker task\n one:  %s\n four: %s", got[0], got[1])
				}
			})
		}
	}
}

func TestSplitEdgeCases(t *testing.T) {
	if got := Split(nil, 5); len(got) != 0 {
		t.Errorf("empty split: %v", got)
	}
	if got := Split(sampleInjections(2), 10); len(got) != 2 {
		t.Errorf("more tasks than injections: %d tasks", len(got))
	}
	if got := Split(sampleInjections(4), 0); len(got) != 1 {
		t.Errorf("zero task count: %d tasks", len(got))
	}
	// Split must not reorder the caller's slice.
	injs := sampleInjections(5)
	first := injs[0].PC
	Split(injs, 2)
	if injs[0].PC != first {
		t.Error("Split mutated its input")
	}
}

func factorialSpec(t *testing.T) checker.Spec {
	t.Helper()
	prog := factorial.Plain()
	exec := symexec.DefaultOptions()
	exec.Watchdog = 400
	return checker.Spec{
		Program:   prog,
		Input:     []int64{5},
		Exec:      exec,
		Predicate: checker.OutcomeIs(symexec.OutcomeNormal),
	}
}

func TestRunCollectsAllTasks(t *testing.T) {
	spec := factorialSpec(t)
	injs := faults.RegisterInjections(spec.Program, true)
	tasks := Split(injs, 4)
	reports := Run(spec, tasks, Config{Workers: 2})
	if len(reports) != len(tasks) {
		t.Fatalf("%d reports for %d tasks", len(reports), len(tasks))
	}
	sum := Summarize(reports)
	if sum.Completed != len(tasks) {
		t.Errorf("completed %d of %d with generous budget", sum.Completed, len(tasks))
	}
	if sum.TotalInjections != len(injs) {
		t.Errorf("injections done %d, want %d", sum.TotalInjections, len(injs))
	}
	if len(sum.Findings) == 0 {
		t.Error("no findings pooled")
	}
}

func TestRunBudgetMarksIncomplete(t *testing.T) {
	spec := factorialSpec(t)
	injs := faults.RegisterInjections(spec.Program, true)
	tasks := Split(injs, 1)
	reports := Run(spec, tasks, Config{TaskStateBudget: 50})
	if len(reports) != 1 {
		t.Fatal("missing report")
	}
	if reports[0].Completed {
		t.Error("task completed under a 50-state budget")
	}
	sum := Summarize(reports)
	if sum.Incomplete != 1 {
		t.Errorf("summary incomplete = %d", sum.Incomplete)
	}
}

func TestRunFindingsCapCompletesTask(t *testing.T) {
	spec := factorialSpec(t)
	injs := faults.RegisterInjections(spec.Program, true)
	tasks := Split(injs, 1)
	reports := Run(spec, tasks, Config{MaxFindingsPerTask: 2})
	if !reports[0].Completed {
		t.Error("finding-capped task not counted completed (paper semantics)")
	}
	if len(reports[0].Findings) != 2 {
		t.Errorf("findings %d, want cap 2", len(reports[0].Findings))
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	spec := factorialSpec(t)
	// An injection with an invalid register triggers an infrastructure
	// error inside the task.
	bad := []faults.Injection{{Class: faults.ClassRegister, PC: 0, Loc: isa.RegLoc(0)}}
	reports := Run(spec, []Task{{ID: 0, Injections: bad}}, Config{})
	if reports[0].Err == nil {
		t.Fatal("task error not reported")
	}
	if errors.Is(reports[0].Err, nil) {
		t.Fatal("impossible")
	}
}

func TestSummarizeBuckets(t *testing.T) {
	reports := []TaskReport{
		{TaskID: 0, Completed: true},
		{TaskID: 1, Completed: true, Findings: []checker.Finding{{}}},
		{TaskID: 2},
	}
	sum := Summarize(reports)
	if sum.Tasks != 3 || sum.Completed != 2 || sum.CompletedEmpty != 1 ||
		sum.CompletedWithFinds != 1 || sum.Incomplete != 1 {
		t.Errorf("summary %+v", sum)
	}
}

// TestRunDeterministic: the cluster harness must produce identical pooled
// results regardless of worker count (per-task isolation).
func TestRunDeterministic(t *testing.T) {
	spec := factorialSpec(t)
	injs := faults.RegisterInjections(spec.Program, true)
	tasks := Split(injs, 4)
	a := Summarize(Run(spec, tasks, Config{Workers: 1}))
	b := Summarize(Run(spec, tasks, Config{Workers: 4}))
	if a.TotalStates != b.TotalStates || len(a.Findings) != len(b.Findings) ||
		a.Completed != b.Completed {
		t.Errorf("worker count changed results: %+v vs %+v", a, b)
	}
}

// TestRunCtxPreCancelledMarksEveryTask proves a cancelled study returns all
// its tasks marked Interrupted (no work silently dropped, no hang) and the
// summary counts them.
func TestRunCtxPreCancelledMarksEveryTask(t *testing.T) {
	spec := factorialSpec(t)
	injs := faults.RegisterInjections(spec.Program, true)
	tasks := Split(injs, 4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports := RunCtx(ctx, spec, tasks, Config{Workers: 2})
	if len(reports) != len(tasks) {
		t.Fatalf("%d reports for %d tasks", len(reports), len(tasks))
	}
	for _, r := range reports {
		if !r.Interrupted {
			t.Errorf("task %d not marked Interrupted", r.TaskID)
		}
		if r.Err != nil {
			t.Errorf("task %d: cancellation surfaced as an error: %v", r.TaskID, r.Err)
		}
	}
	sum := Summarize(reports)
	if sum.Interrupted != len(tasks) {
		t.Errorf("summary counts %d interrupted tasks, want %d", sum.Interrupted, len(tasks))
	}
	if sum.Completed != 0 {
		t.Errorf("cancelled study claims %d completed tasks", sum.Completed)
	}
}

// TestRunCtxCancelMidStudy cancels after the first finding lands: the pooled
// summary keeps the partial work and at least one task is cut short.
func TestRunCtxCancelMidStudy(t *testing.T) {
	spec := factorialSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := spec.Predicate.Match
	spec.Predicate.Match = func(s *symexec.State) bool {
		cancel()
		return base(s)
	}
	injs := faults.RegisterInjections(spec.Program, true)
	tasks := Split(injs, 4)
	sum := Summarize(RunCtx(ctx, spec, tasks, Config{Workers: 1}))
	if sum.Interrupted == 0 {
		t.Error("no task marked interrupted after a mid-study cancel")
	}
	if sum.TotalStates == 0 {
		t.Error("partial work was discarded instead of pooled")
	}
}

// TestRunIsolatesPanickingInjection proves a panic inside one injection is
// absorbed by the checker's recover boundary: the task keeps sweeping, the
// panic is counted, and no other task is affected.
func TestRunIsolatesPanickingInjection(t *testing.T) {
	spec := factorialSpec(t)
	base := spec.Predicate.Match
	var calls int32
	spec.Predicate.Match = func(s *symexec.State) bool {
		if atomic.AddInt32(&calls, 1) == 1 {
			panic("poisoned predicate")
		}
		return base(s)
	}
	injs := faults.RegisterInjections(spec.Program, true)
	tasks := Split(injs, 2)
	reports := Run(spec, tasks, Config{Workers: 1})
	sum := Summarize(reports)
	if sum.Panics != 1 {
		t.Fatalf("summary counts %d panics, want 1", sum.Panics)
	}
	if sum.TotalInjections == 0 {
		t.Error("panic stopped the sweep instead of being isolated")
	}
	for _, r := range reports {
		if r.Err != nil {
			t.Errorf("task %d: panic surfaced as an infrastructure error: %v", r.TaskID, r.Err)
		}
	}
}

// TestSplitPoints: the crossval-site split keeps the same partition contract
// as Split — complete, non-empty, PC-ordered, round-robin interleaved.
func TestSplitPoints(t *testing.T) {
	pts := make([]simplescalar.Point, 10)
	for i := range pts {
		pts[i] = simplescalar.Point{PC: 9 - i, Reg: isa.Reg(1), Dst: i%2 == 0}
	}
	tasks := SplitPoints(pts, 3)
	if len(tasks) != 3 {
		t.Fatalf("%d tasks", len(tasks))
	}
	total := 0
	for i, task := range tasks {
		if task.ID != i {
			t.Errorf("task %d has ID %d", i, task.ID)
		}
		if len(task.Points) == 0 {
			t.Errorf("task %d empty", i)
		}
		total += len(task.Points)
		lastPC := -1
		for _, pt := range task.Points {
			if pt.PC < lastPC {
				t.Errorf("task %d points not PC-ordered", i)
			}
			lastPC = pt.PC
		}
	}
	if total != len(pts) {
		t.Errorf("partition lost points: %d of %d", total, len(pts))
	}
	if got := SplitPoints(nil, 4); len(got) != 0 {
		t.Errorf("empty input produced %d tasks", len(got))
	}
	if got := SplitPoints(pts[:2], 5); len(got) != 2 {
		t.Errorf("2 points split 5 ways produced %d tasks", len(got))
	}
}
