package experiments

import (
	"context"
	"fmt"

	"symplfied/internal/apps/tcas"
	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// TcasConfig scales the Section 6.2 study.
type TcasConfig struct {
	// Tasks is the decomposition width (the paper used 150 cluster nodes).
	Tasks int
	// TaskStateBudget replaces the paper's 30-minute wall-clock allotment.
	TaskStateBudget int
	// MaxFindingsPerTask mirrors the paper's cap of 10 errors per task.
	MaxFindingsPerTask int
	// Workers is the worker-pool size (0: GOMAXPROCS).
	Workers int
	// Watchdog bounds each symbolic path.
	Watchdog int
	// MergeStates explores each injection with post-dominator state merging
	// and cycle acceleration (checker.Spec.MergeStates). Verdicts and
	// findings are unchanged; the states-explored tally drops because fused
	// states step once for many worlds and watchdog-bound hang loops are
	// fast-forwarded instead of stepped lap by lap.
	MergeStates bool
}

// DefaultTcasConfig reproduces the paper's setup at full scale.
func DefaultTcasConfig() TcasConfig {
	return TcasConfig{
		Tasks:              150,
		TaskStateBudget:    25_000,
		MaxFindingsPerTask: 10,
		Watchdog:           4_000,
	}
}

// TcasStudy reproduces Section 6.2: a symbolic search over all single
// register errors in tcas (one per execution, injected into the registers
// each instruction uses) for runs that halt without an exception printing an
// advisory other than the fault-free 1. The paper's claims: exactly the
// catastrophic 1->2 flip is found (via the corrupted return address in
// Non_Crossing_Biased_Climb), along with 1->0 and out-of-range outcomes;
// some tasks complete, a subset of those hold findings.
func TcasStudy(ctx context.Context, cfg TcasConfig) (*Result, error) {
	res := &Result{ID: "tcas", Title: "Section 6.2 tcas symbolic register-error study"}

	prog := tcas.Program()
	input := tcas.UpwardInput()
	if got := tcas.Oracle(input); got != tcas.UpwardRA {
		return nil, fmt.Errorf("tcas study: fault-free oracle output %d, want 1", got)
	}

	injections := faults.RegisterInjectionsUsed(prog)
	exec := symexec.DefaultOptions()
	exec.Watchdog = cfg.Watchdog

	spec := checker.Spec{
		Program:     prog,
		Input:       input.Slice(),
		Exec:        exec,
		Predicate:   checker.HaltedOutputOtherThan(tcas.UpwardRA),
		MergeStates: cfg.MergeStates,
	}
	tasks := cluster.Split(injections, cfg.Tasks)
	reports := cluster.RunCtx(ctx, spec, tasks, cluster.Config{
		Workers:            cfg.Workers,
		TaskStateBudget:    cfg.TaskStateBudget,
		MaxFindingsPerTask: cfg.MaxFindingsPerTask,
	})
	sum := cluster.Summarize(reports)

	// Classify findings the way Section 6.2 reports them.
	var flips, zeros, outOfRange, errOut int
	var flip *checker.Finding
	for i := range sum.Findings {
		f := &sum.Findings[i]
		vals := f.State.OutputValues()
		if len(vals) != 1 {
			outOfRange++
			continue
		}
		if vals[0].IsErr() {
			errOut++
			continue
		}
		switch v, _ := vals[0].Concrete(); v {
		case tcas.DownwardRA:
			flips++
			if flip == nil {
				flip = f
			}
		case tcas.Unresolved:
			zeros++
		default:
			outOfRange++
		}
	}

	res.rowf("injection space: %d register errors over %d instructions (paper: ~800x32 reduced by activation)",
		len(injections), prog.Len())
	res.rowf("tasks: %d launched, %d completed, %d completed empty, %d completed with findings, %d incomplete",
		sum.Tasks, sum.Completed, sum.CompletedEmpty, sum.CompletedWithFinds, sum.Incomplete)
	res.rowf("states explored: %d; terminal outcomes: %v", sum.TotalStates, renderOutcomes(sum.Outcomes))
	if cfg.MergeStates {
		res.rowf("state merging: %d injections explored merged; %d shared-step observations and %d loop steps elided (verdicts unchanged)",
			sum.Merged, sum.Exec.StatesMerged, sum.Exec.StepsElided)
	}
	res.rowf("undetected incorrect advisories: 1->2 (catastrophic): %d, 1->0 (unresolved): %d, out-of-range/multi: %d, err printed: %d",
		flips, zeros, outOfRange, errOut)
	if flip != nil {
		res.rowf("catastrophic scenario: %s", flip.Injection)
		res.rowf("  symbolic state at failure: %s", flip.State.Sym.Describe())
	}

	res.check(flips > 0, "the catastrophic 1->2 advisory flip is found", fmt.Sprintf("%d flips", flips))
	if flip != nil {
		res.check(flip.Injection.Loc == isa.RegLoc(isa.RegRA),
			"the flip stems from a corrupted return address ($31) in a callee",
			flip.Injection.String())
	}

	// The paper's specific scenario, verified in isolation: err in $31 at
	// Non_Crossing_Biased_Climb's return, landing on the DOWNWARD_RA
	// assignment, with the solver pinning the corrupted value to exactly
	// that code address.
	jrPC, err := tcas.ReturnJrPC(prog, "Non_Crossing_Biased_Climb")
	if err != nil {
		return nil, err
	}
	landPC, err := tcas.DownwardAssignPC(prog)
	if err != nil {
		return nil, err
	}
	ncbc, err := checker.RunInjectionCtx(ctx, spec, faults.Injection{
		Class: faults.ClassRegister, PC: jrPC, Loc: isa.RegLoc(isa.RegRA),
	})
	if err != nil {
		return nil, err
	}
	ncbcFlip := false
	for _, f := range ncbc.Findings {
		vals := f.State.OutputValues()
		if len(vals) != 1 || !vals[0].Equal(isa.Int(tcas.DownwardRA)) {
			continue
		}
		if cons := f.State.Sym.RootConstraints(0); cons != nil {
			if v, okx := cons.Exact(); okx && v == int64(landPC) {
				ncbcFlip = true
			}
		}
	}
	res.rowf("targeted scenario: err in $31 at NCBC's jr => lands at AST_downward (@%d), prints 2: %v", landPC, ncbcFlip)
	res.check(ncbcFlip,
		"the paper's scenario reproduces: NCBC return-address corruption pinned to the DOWNWARD_RA assignment",
		fmt.Sprintf("constraint e#0 == %d", landPC))
	res.check(zeros > 0, "1->0 (unresolved instead of upward) outcomes are found", fmt.Sprintf("%d", zeros))
	res.check(sum.Completed > 0 && sum.CompletedWithFinds > 0 && sum.CompletedEmpty > 0,
		"task split matches the paper's shape: some complete empty, some complete with findings",
		fmt.Sprintf("%d empty, %d with findings, %d incomplete", sum.CompletedEmpty, sum.CompletedWithFinds, sum.Incomplete))

	res.notef("budgets are in symbolic states rather than wall-clock minutes, so completion counts are deterministic")
	res.finalize()
	return res, nil
}

func renderOutcomes(m map[symexec.Outcome]int) string {
	order := []symexec.Outcome{symexec.OutcomeNormal, symexec.OutcomeCrash, symexec.OutcomeHang, symexec.OutcomeDetected}
	s := ""
	for _, o := range order {
		if n := m[o]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%d", o, n)
		}
	}
	if s == "" {
		return "none"
	}
	return s
}
