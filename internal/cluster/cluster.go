// Package cluster implements the paper's experiment-decomposition harness
// (Section 6.1): a search command is "split into multiple smaller searches,
// each of which sweeps a particular section of the program code", the tasks
// run independently (there on a 150-node Opteron cluster, here on a worker
// pool), each task is capped in findings (the paper used 10) and in budget
// (the paper used 30 minutes wall-clock; we use a deterministic state
// budget), and the results are pooled.
//
// RunCtx propagates context cancellation to every worker: an interrupted
// study returns the partial pooled results gathered so far — with the
// affected tasks marked Interrupted — rather than nothing, mirroring how the
// paper's cluster runs salvaged the tasks that finished inside their
// allotment.
package cluster

import (
	"context"
	"sort"
	"time"

	"symplfied/internal/checker"
	"symplfied/internal/faults"
	"symplfied/internal/obs"
	"symplfied/internal/pool"
	"symplfied/internal/simplescalar"
	"symplfied/internal/symexec"
)

// Task is one independent search sweeping a slice of the injection space.
type Task struct {
	ID         int
	Injections []faults.Injection
}

// Split partitions injections into at most n tasks balanced two ways: by
// injection count (task sizes differ by at most one) and by code position —
// injections are ordered by breakpoint PC and dealt round-robin, so every
// task sweeps an interleaved sample of the whole program instead of one
// contiguous section. Contiguous slicing hands one task all the late-program
// breakpoints, whose injections are the expensive ones (a long concrete
// prefix before every symbolic exploration), and that task straggles the
// study; interleaving spreads the cost. Each task's injections remain
// PC-ordered. Every returned task is non-empty; fewer than n tasks are
// returned when there are fewer injections.
func Split(injections []faults.Injection, n int) []Task {
	if n <= 0 {
		n = 1
	}
	ordered := make([]faults.Injection, len(injections))
	copy(ordered, injections)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].PC < ordered[j].PC })

	if n > len(ordered) {
		n = len(ordered)
	}
	tasks := make([]Task, 0, n)
	for i := 0; i < n; i++ {
		var part []faults.Injection
		for j := i; j < len(ordered); j += n {
			part = append(part, ordered[j])
		}
		if len(part) == 0 {
			continue
		}
		tasks = append(tasks, Task{ID: len(tasks), Injections: part})
	}
	return tasks
}

// PointTask is one independent slice of a concrete↔symbolic cross-validation
// sweep (internal/crossval): a set of injection sites rather than symbolic
// injections. It is the crossval analogue of Task and is split the same way.
type PointTask struct {
	ID     int
	Points []simplescalar.Point
}

// SplitPoints partitions cross-validation sites into at most n tasks with the
// same policy as Split: PC-ordered, dealt round-robin so every task sweeps an
// interleaved sample of the program, sizes differing by at most one, every
// returned task non-empty. Because crossval point verdicts are deterministic
// and merged canonically (crossval.Merge), any partitioning produced here
// yields a byte-identical merged report.
func SplitPoints(points []simplescalar.Point, n int) []PointTask {
	if n <= 0 {
		n = 1
	}
	ordered := make([]simplescalar.Point, len(points))
	copy(ordered, points)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].PC < ordered[j].PC })

	if n > len(ordered) {
		n = len(ordered)
	}
	tasks := make([]PointTask, 0, n)
	for i := 0; i < n; i++ {
		var part []simplescalar.Point
		for j := i; j < len(ordered); j += n {
			part = append(part, ordered[j])
		}
		if len(part) == 0 {
			continue
		}
		tasks = append(tasks, PointTask{ID: len(tasks), Points: part})
	}
	return tasks
}

// Config tunes the harness.
type Config struct {
	// Workers is the pool size; 0 selects GOMAXPROCS.
	Workers int
	// TaskStateBudget is the total number of symbolic states a task may
	// explore before it is stopped as incomplete (the analogue of the
	// paper's 30-minute task allotment). 0 selects a default of 200k.
	TaskStateBudget int
	// MaxFindingsPerTask stops a task once it has collected this many
	// findings (the paper capped each search task at 10). 0 means unlimited.
	MaxFindingsPerTask int
}

// DefaultTaskStateBudget is used when Config.TaskStateBudget is zero.
const DefaultTaskStateBudget = 200_000

// TaskReport is the result of one task.
type TaskReport struct {
	TaskID int
	// Completed is true when the task swept all its injections within its
	// budget. The paper reports completed tasks separately (85 of 150 for
	// tcas, 202 of 312 for replace).
	Completed bool
	// Interrupted is true when the study's context was cancelled before or
	// while this task ran; its tallies are a sound partial subset.
	Interrupted bool
	// Panics counts injections within the task that panicked and were
	// isolated by the checker's recover boundary.
	Panics int
	// InjectionsDone counts injections fully explored.
	InjectionsDone int
	// Merged counts injections explored with post-dominator state merging
	// (checker.InjectionReport.Merged). Their verdicts match the plain
	// exploration's; StatesExplored reflects the elided work.
	Merged int `json:",omitempty"`
	// Summarized counts injections classified benign by a compositional
	// function summary (checker.InjectionReport.Summarized). Zero unless
	// the spec enables UseSummaries.
	Summarized int `json:",omitempty"`
	// StatesExplored counts symbolic states expanded by the task.
	StatesExplored int
	// Findings are the predicate matches, capped by MaxFindingsPerTask.
	Findings []checker.Finding
	// Outcomes tallies terminal states by outcome over the whole task.
	Outcomes map[symexec.Outcome]int
	// DetectorHits folds the task's per-detector coverage attribution
	// (checker.InjectionReport.DetectorHits). Nil when nothing fired.
	DetectorHits map[int64]int `json:",omitempty"`
	// Err reports an infrastructure failure (not a program failure). Errors
	// do not survive JSON transport; Failure carries the text.
	Err error `json:"-"`
	// Failure mirrors Err as text so task reports round-trip through the
	// distributed wire protocol and checkpoint journals.
	Failure string `json:",omitempty"`
	// Exec merges the task's per-injection exploration tallies (see
	// checker.InjectionReport.Exec). Deterministic, so the distributed
	// coordinator pooling shipped injection reports derives the identical
	// value.
	Exec obs.ExecStats
}

// FoundErrors reports whether the task found any predicate match.
func (r TaskReport) FoundErrors() bool { return len(r.Findings) > 0 }

// Run executes the tasks on a worker pool and returns their reports indexed
// by task ID. The spec's Injections field is ignored; each task supplies its
// own slice.
func Run(spec checker.Spec, tasks []Task, cfg Config) []TaskReport {
	return RunCtx(context.Background(), spec, tasks, cfg)
}

// RunCtx executes the tasks on the shared worker pool (internal/pool) under
// ctx. Cancellation stops dispatching new tasks and interrupts running ones
// at their next frontier poll; every task that did not complete is returned
// marked Interrupted with whatever partial tallies it gathered, so a killed
// study still pools the work already done.
func RunCtx(ctx context.Context, spec checker.Spec, tasks []Task, cfg Config) []TaskReport {
	workers := pool.Size(cfg.Workers, len(tasks))
	if workers > 1 {
		// The task pool is the parallelism here; letting every task also fan
		// its injections across spec.Parallelism workers would oversubscribe
		// the cores. Intra-task parallelism still applies when the pool
		// degenerates to one task at a time — the dist-worker shape.
		spec.Parallelism = 1
	}
	budget := cfg.TaskStateBudget
	if budget <= 0 {
		budget = DefaultTaskStateBudget
	}
	// Resolve the summary context once so every task in the study shares
	// one summary set and one representative exploration per breakpoint;
	// without this, each task-spec copy would rebuild its own memo. The merge
	// context likewise shares one control-flow analysis.
	spec.EnsureSummaries()
	spec.EnsureMerge()

	// Decomposition-progress gauges for -metrics-addr scrapes and the
	// -progress ETA (the pool keeps the worker gauges). Gauges use deltas,
	// not Set, so nested pools (a dist worker running its own cluster sweep)
	// stay additive.
	reg := obs.Default()
	tasksTotal := reg.Gauge(obs.MTasksTotal)
	tasksDone := reg.Gauge(obs.MTasksDone)
	taskSeconds := reg.Histogram(obs.MTaskSeconds, nil)
	tasksTotal.Add(int64(len(tasks)))

	reports := make([]TaskReport, len(tasks))
	ran := pool.Run(ctx, workers, len(tasks), func(i int) bool {
		start := time.Now()
		reports[i], _ = RunTaskCtx(ctx, spec, tasks[i], budget, cfg.MaxFindingsPerTask)
		taskSeconds.Observe(time.Since(start).Seconds())
		tasksDone.Add(1)
		return false
	})
	tasksTotal.Add(-int64(len(tasks)))
	tasksDone.Add(-int64(ran)) // retire this study's contribution
	for i := ran; i < len(tasks); i++ {
		reports[i] = TaskReport{
			TaskID:      tasks[i].ID,
			Interrupted: true,
			Outcomes:    make(map[symexec.Outcome]int),
		}
	}
	return reports
}

// RunTaskCtx executes one task: each injection is explored through
// checker.RunInjectionCtx under the task's shared state budget and finding
// cap, with the checker's per-injection timeout and panic isolation intact.
// It returns the task report together with the per-injection reports the
// sweep produced, in execution order — the serializable task result the
// distributed harness (internal/dist) ships from worker to coordinator. The
// report always satisfies rep == PoolReports(task, irs, maxFindings) plus the
// entry-interruption and infrastructure-error marks only the executing side
// can observe, so pooling the shipped reports remotely reconstructs the
// identical TaskReport.
//
// The shared budget makes injections sequentially dependent (each one's
// budget is what its predecessors left over), so one replay loop walks the
// injections in order and imposes the accounting. At one worker
// (spec.Parallelism 1, or a one-injection task) it explores each injection
// lazily with the budget and finding cap remaining at its turn. At more, the
// pool first explores every injection speculatively with the FULL task
// budget and finding cap, and the replay reads those runs. Two facts make
// the replay exact:
//
//   - StateBudget only matters once it binds. A speculative run that explored
//     no more states than the budget remaining at its turn is byte-identical
//     to the lazy run; the first injection whose speculative run overran its
//     remaining budget — the one injection where the sweep actually ends — is
//     re-run lazily with the clipped budget.
//   - MaxFindings truncates the recorded findings but never stops
//     exploration, so clipping a speculative run's findings to the cap
//     remaining at its turn reproduces the lazy report exactly.
//
// The returned report and reports are therefore the same at every width,
// except for wall-clock-dependent outcomes (an expired PerInjectionTimeout).
// The cost of speculation is burnt work past the budget cutoff (bounded by
// one full-budget run per worker), traded for using every core on one task —
// the dist-worker shape, where a node holds a single lease at a time.
func RunTaskCtx(ctx context.Context, spec checker.Spec, task Task, budget, maxFindings int) (TaskReport, []checker.InjectionReport) {
	if budget <= 0 {
		budget = DefaultTaskStateBudget
	}
	// Share one summary context across this task's injections (a caller
	// that installed spec.Summaries — RunCtx, a dist worker — shares it
	// wider), and likewise the merge context.
	spec.EnsureSummaries()
	spec.EnsureMerge()
	run := func(i, states, findingsLeft int) (checker.InjectionReport, error) {
		injSpec := spec
		injSpec.StateBudget = states
		if maxFindings > 0 {
			injSpec.MaxFindings = findingsLeft
		}
		return checker.RunInjectionCtx(ctx, injSpec, task.Injections[i])
	}
	type slot struct {
		ir  checker.InjectionReport
		err error
	}
	var slots []slot // speculative runs of the injections [0, speculated)
	speculated := 0
	if workers := pool.Size(spec.Parallelism, len(task.Injections)); workers > 1 {
		slots = make([]slot, len(task.Injections))
		speculated = pool.Run(ctx, workers, len(task.Injections), func(i int) bool {
			slots[i].ir, slots[i].err = run(i, budget, maxFindings)
			return slots[i].err != nil // the replay ends at the error
		})
	}

	var (
		irs         []checker.InjectionReport
		remaining   = budget
		findings    = 0
		interrupted = false
		taskErr     error
	)
	for i := range task.Injections {
		if i >= speculated && ctx.Err() != nil {
			interrupted = true
			break
		}
		if remaining <= 0 {
			break // budget exhausted before sweeping everything
		}
		var sl slot
		lazy := i >= speculated
		if !lazy {
			sl = slots[i]
			// The shared budget cuts this injection short, so its
			// speculative full-budget run is the wrong exploration.
			// Exploration is deterministic, so the lazy re-run is exactly
			// the one-worker sweep's budget-exhausted report.
			lazy = sl.err == nil && sl.ir.StatesExplored > remaining
		}
		if lazy {
			sl.ir, sl.err = run(i, remaining, maxFindings-findings)
		}
		if sl.err != nil {
			taskErr = sl.err
			break
		}
		ir := sl.ir
		if left := maxFindings - findings; maxFindings > 0 && len(ir.Findings) > left {
			ir.Findings = ir.Findings[:left]
		}
		irs = append(irs, ir)
		remaining -= ir.StatesExplored
		findings += len(ir.Findings)
		if ir.Panicked {
			// The checker isolated a panic inside this injection; keep
			// sweeping the task's remaining injections.
			continue
		}
		if ir.Interrupted || ir.BudgetExhausted {
			break
		}
		if maxFindings > 0 && findings >= maxFindings {
			break
		}
	}
	// A cancel stops the replay at the first interrupted injection, but the
	// pool ran later injections concurrently: the cancel cut some short and
	// let others finish. Pool the work of every one that ran (the task is
	// partial either way), so a cancel never discards work already done.
	if ctx.Err() != nil && taskErr == nil && (interrupted || len(irs) > 0 && irs[len(irs)-1].Interrupted) {
		for j := len(irs); j < speculated; j++ {
			if sl := slots[j]; sl.err == nil {
				ir := sl.ir
				if left := maxFindings - findings; maxFindings > 0 && len(ir.Findings) > left {
					ir.Findings = ir.Findings[:max(left, 0)]
				}
				irs = append(irs, ir)
				findings += len(ir.Findings)
			}
		}
	}
	rep := PoolReports(task, irs, maxFindings)
	if interrupted {
		rep.Interrupted = true
	}
	if taskErr != nil {
		rep.Err = taskErr
		rep.Failure = taskErr.Error()
	}
	return rep, irs
}

// PoolReports folds a task's per-injection reports (in execution order) into
// its TaskReport, replaying runTask's accounting: tallies accumulate, a
// panicked injection is counted and skipped, an interrupted or
// budget-exhausted injection ends the task incomplete (a cancelled parallel
// sweep ships the other injections it settled after the interrupted one;
// only their tallies are pooled), and the finding cap
// counts the task completed (the paper counts finding-capped tasks as
// completed — they returned results). It is a pure function of its inputs,
// so a coordinator pooling reports posted by a remote worker derives the
// same TaskReport the worker's own RunTaskCtx did.
func PoolReports(task Task, irs []checker.InjectionReport, maxFindings int) TaskReport {
	rep := TaskReport{
		TaskID:   task.ID,
		Outcomes: make(map[symexec.Outcome]int),
	}
	for _, ir := range irs {
		rep.StatesExplored += ir.StatesExplored
		rep.Exec.Merge(ir.Exec)
		if ir.Summarized {
			rep.Summarized++
		}
		if ir.Merged {
			rep.Merged++
		}
		for o, n := range ir.Outcomes {
			rep.Outcomes[o] += n
		}
		for id, n := range ir.DetectorHits {
			if rep.DetectorHits == nil {
				rep.DetectorHits = make(map[int64]int)
			}
			rep.DetectorHits[id] += n
		}
		rep.Findings = append(rep.Findings, ir.Findings...)
		if ir.Panicked {
			rep.Panics++
			continue
		}
		if rep.Interrupted || ir.Interrupted {
			rep.Interrupted = true
			continue // partial tallies pooled, task marked interrupted
		}
		if ir.BudgetExhausted {
			return rep // this injection alone blew the budget: incomplete
		}
		rep.InjectionsDone++
		if maxFindings > 0 && len(rep.Findings) >= maxFindings {
			rep.Completed = true
			return rep
		}
	}
	rep.Completed = len(task.Injections) == rep.InjectionsDone
	return rep
}

// Summary pools task reports the way the paper reports its studies.
type Summary struct {
	Tasks              int
	Completed          int
	CompletedEmpty     int // completed without findings (benign or crash)
	CompletedWithFinds int
	Incomplete         int
	// Interrupted counts tasks cut short by cancellation (a subset of
	// Incomplete).
	Interrupted int
	// Panics counts isolated panicking injections across all tasks.
	Panics int
	// Summarized counts injections across all tasks that a compositional
	// summary proof classified benign.
	Summarized int
	// Merged counts injections across all tasks explored with
	// post-dominator state merging.
	Merged          int
	TotalStates     int
	TotalInjections int
	Findings        []checker.Finding
	Outcomes        map[symexec.Outcome]int
	// DetectorHits folds every task's per-detector coverage attribution.
	DetectorHits map[int64]int `json:",omitempty"`
	// Exec merges every task's exploration tally.
	Exec obs.ExecStats
}

// Summarize aggregates reports.
func Summarize(reports []TaskReport) Summary {
	s := Summary{Tasks: len(reports), Outcomes: make(map[symexec.Outcome]int)}
	for _, r := range reports {
		s.TotalStates += r.StatesExplored
		s.TotalInjections += r.InjectionsDone
		s.Summarized += r.Summarized
		s.Merged += r.Merged
		s.Findings = append(s.Findings, r.Findings...)
		s.Panics += r.Panics
		s.Exec.Merge(r.Exec)
		for o, n := range r.Outcomes {
			s.Outcomes[o] += n
		}
		for id, n := range r.DetectorHits {
			if s.DetectorHits == nil {
				s.DetectorHits = make(map[int64]int)
			}
			s.DetectorHits[id] += n
		}
		switch {
		case r.Completed && r.FoundErrors():
			s.Completed++
			s.CompletedWithFinds++
		case r.Completed:
			s.Completed++
			s.CompletedEmpty++
		default:
			s.Incomplete++
		}
		if r.Interrupted {
			s.Interrupted++
		}
	}
	return s
}
