package symplfied_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact through internal/experiments), plus
// microbenchmarks of the framework's hot paths and an ablation of the
// affine constraint solver. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: experiment benches report states/op (symbolic states
// explored) and findings/op so throughput changes and result drift are both
// visible.

import (
	"context"
	"testing"

	"symplfied"
	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/checker"
	"symplfied/internal/experiments"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/summary"
	"symplfied/internal/symbolic"
	"symplfied/internal/symexec"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := r.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if !res.ShapeOK {
			b.Fatalf("%s: shape checks failed:\n%s", id, res.Render())
		}
	}
}

// BenchmarkFig2FactorialEnumeration regenerates Section 4.1's outcome
// enumeration (Figure 2 program).
func BenchmarkFig2FactorialEnumeration(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3FactorialDetectors regenerates Section 4.2's detector
// derivation (Figure 3 program).
func BenchmarkFig3FactorialDetectors(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkTable1ManifestationEnumeration regenerates Table 1's
// computation-error manifestation checks.
func BenchmarkTable1ManifestationEnumeration(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkSec62TcasSymbolicStudy regenerates the Section 6.2 tcas study:
// 150 cluster-style tasks over all register errors, finding the catastrophic
// advisory flip.
func BenchmarkSec62TcasSymbolicStudy(b *testing.B) { benchExperiment(b, "tcas") }

// BenchmarkTable2SimpleScalarCampaign regenerates Table 2: both concrete
// campaigns (6253 and 41082 faults), which find no outcome-2 case.
func BenchmarkTable2SimpleScalarCampaign(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkSec64ReplaceStudy regenerates the Section 6.4 replace study:
// 312 tasks over all register errors in the replace program.
func BenchmarkSec64ReplaceStudy(b *testing.B) { benchExperiment(b, "replace") }

// BenchmarkHardeningStudy regenerates the extension artifact: the canary
// hardening that turns the tcas flip from refuted to proven.
func BenchmarkHardeningStudy(b *testing.B) { benchExperiment(b, "hardening") }

// BenchmarkClassesStudy regenerates the extension artifact sweeping the
// memory, control and decoder error classes over tcas.
func BenchmarkClassesStudy(b *testing.B) { benchExperiment(b, "classes") }

// --- Microbenchmarks -------------------------------------------------------

// BenchmarkConstraintSolver measures constraint conjunction, normalization
// and satisfiability over a typical atom mix.
func BenchmarkConstraintSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := symbolic.NewConstraints()
		c.AddCmp(isa.CmpGt, 1)
		c.AddCmp(isa.CmpLe, 1000)
		c.AddCmp(isa.CmpNe, 5)
		c.AddCmp(isa.CmpNe, 1000)
		c.AddCmp(isa.CmpGe, 3)
		if !c.Satisfiable() {
			b.Fatal("unexpectedly unsatisfiable")
		}
	}
}

// BenchmarkInjectionExploration measures a full bounded exploration of one
// catastrophic injection (err in $31 at NCBC's return: ~150-way control
// fork plus the follow-on paths).
func BenchmarkInjectionExploration(b *testing.B) {
	prog := tcas.Program()
	jrPC, err := tcas.ReturnJrPC(prog, "Non_Crossing_Biased_Climb")
	if err != nil {
		b.Fatal(err)
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	spec := checker.Spec{
		Program:   prog,
		Input:     tcas.UpwardInput().Slice(),
		Exec:      exec,
		Predicate: checker.HaltedOutputOtherThan(1),
	}
	inj := faults.Injection{Class: faults.ClassRegister, PC: jrPC, Loc: isa.RegLoc(isa.RegRA)}
	states := 0
	for i := 0; i < b.N; i++ {
		ir, err := checker.RunInjection(spec, inj)
		if err != nil {
			b.Fatal(err)
		}
		if len(ir.Findings) == 0 {
			b.Fatal("no findings")
		}
		states = ir.StatesExplored
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkLoadStoreFanoutReplace measures the memory sub-model's fork
// fan-out: one replace injection of err into the stack pointer $29 just
// before amatch's "st $5 2($29)", so that store forks over every defined
// word plus the fresh-location case, and the frame loads that follow fork
// over the defined words plus the undefined-address case. Budget, watchdog
// and findings cap are the Section 6.4 study's.
func BenchmarkLoadStoreFanoutReplace(b *testing.B) {
	prog := replace.Program()
	input := replace.Input("[a-c]x*", "<&>", "axx b cx")
	ref := machine.New(prog, input, machine.Options{Watchdog: 2_000_000})
	expected := machine.RenderOutput(ref.Run().Output)
	pc := prog.Labels["AM_loop"]
	for pc < prog.Len() && (prog.At(pc).Op != isa.OpSt || prog.At(pc).Rs != isa.RegSP) {
		pc++
	}
	if pc == prog.Len() {
		b.Fatal("no store through $29 after AM_loop")
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 120_000
	spec := checker.Spec{
		Program:     prog,
		Input:       input,
		Exec:        exec,
		Predicate:   checker.IncorrectOutput(expected),
		StateBudget: 60_000,
		MaxFindings: 10,
	}
	inj := faults.Injection{Class: faults.ClassRegister, PC: pc, Loc: isa.RegLoc(isa.RegSP)}
	var states, findings int
	for i := 0; i < b.N; i++ {
		ir, err := checker.RunInjection(spec, inj)
		if err != nil {
			b.Fatal(err)
		}
		if ir.BudgetExhausted || ir.Exec.ForksLoad == 0 || ir.Exec.ForksStore == 0 {
			b.Fatalf("injection at %s: budget exhausted %v, %d load and %d store forks",
				prog.Locate(pc), ir.BudgetExhausted, ir.Exec.ForksLoad, ir.Exec.ForksStore)
		}
		states, findings = ir.StatesExplored, len(ir.Findings)
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(findings), "findings/op")
}

// BenchmarkAssembleTcas measures the assembler on the tcas source.
func BenchmarkAssembleTcas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := symplfied.Assemble("tcas", tcas.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimpleScalarRun measures one concrete injection experiment.
func BenchmarkSimpleScalarRun(b *testing.B) {
	unit := &symplfied.Unit{Program: tcas.Program()}
	input := tcas.UpwardInput().Slice()
	for i := 0; i < b.N; i++ {
		rep, err := symplfied.Campaign(symplfied.CampaignSpec{
			Unit:           unit,
			Input:          input,
			Faults:         100,
			Seed:           int64(i),
			Watchdog:       50_000,
			AllowedOutputs: []int64{0, 1, 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != 100 {
			b.Fatal("campaign size drift")
		}
	}
}

// --- Ablation: the affine constraint solver --------------------------------

// benchAblation runs the Figure 3 detector analysis with the affine solver
// on or off and reports explored states and detected/normal terminal counts.
// With the solver off (the paper's coarser model), lineage is lost, so the
// derived detection condition degrades and spurious paths survive.
func benchAblation(b *testing.B, affine bool) {
	prog, dets := factorial.WithDetectors()
	subiPC, ok := factorial.SubiPC(prog)
	if !ok {
		b.Fatal("no subi")
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 400
	exec.AffineTracking = affine
	spec := checker.Spec{
		Program:   prog,
		Detectors: dets,
		Input:     []int64{5},
		Exec:      exec,
		Predicate: checker.OutcomeIs(symexec.OutcomeNormal),
	}
	inj := faults.Injection{Class: faults.ClassRegister, PC: subiPC, Loc: isa.RegLoc(3)}
	var states, normals, detected int
	for i := 0; i < b.N; i++ {
		ir, err := checker.RunInjection(spec, inj)
		if err != nil {
			b.Fatal(err)
		}
		states = ir.StatesExplored
		normals = ir.Outcomes[symexec.OutcomeNormal]
		detected = ir.Outcomes[symexec.OutcomeDetected]
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(normals), "normal-paths/op")
	b.ReportMetric(float64(detected), "detected-paths/op")
}

// BenchmarkAblationAffineSolverOn: the refined solver (this implementation's
// default).
func BenchmarkAblationAffineSolverOn(b *testing.B) { benchAblation(b, true) }

// BenchmarkAblationAffineSolverOff: the paper-strict single-symbol model.
func BenchmarkAblationAffineSolverOff(b *testing.B) { benchAblation(b, false) }

// benchFaultDuration compares transient and permanent (stuck-at) faults on
// the same factorial site: the permanent fault collapses per-iteration
// re-forking, so its world count is much smaller.
func benchFaultDuration(b *testing.B, permanent bool) {
	prog := factorial.Plain()
	subiPC, ok := factorial.SubiPC(prog)
	if !ok {
		b.Fatal("no subi")
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 400
	spec := checker.Spec{
		Program:   prog,
		Input:     []int64{5},
		Exec:      exec,
		Predicate: checker.OutcomeIs(symexec.OutcomeNormal),
	}
	inj := faults.Injection{
		Class: faults.ClassRegister, PC: subiPC, Loc: isa.RegLoc(3),
		Permanent: permanent,
	}
	var states, terminals int
	for i := 0; i < b.N; i++ {
		ir, err := checker.RunInjection(spec, inj)
		if err != nil {
			b.Fatal(err)
		}
		states = ir.StatesExplored
		terminals = ir.TerminalStates
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(terminals), "worlds/op")
}

// BenchmarkAblationTransientFault: the paper's primary transient model.
func BenchmarkAblationTransientFault(b *testing.B) { benchFaultDuration(b, false) }

// BenchmarkAblationPermanentFault: the future-work stuck-at extension.
func BenchmarkAblationPermanentFault(b *testing.B) { benchFaultDuration(b, true) }

// benchActivationPolicy measures the paper's Section 6.2 optimization:
// injecting only into the registers each instruction uses (activation
// guaranteed) versus the exhaustive instructions x registers space. Both
// must find the catastrophic flip; the activated policy does so with a
// fraction of the injections and states.
func benchActivationPolicy(b *testing.B, activated bool) {
	prog := tcas.Program()
	var injections []faults.Injection
	if activated {
		injections = faults.RegisterInjectionsUsed(prog)
	} else {
		injections = faults.RegisterInjections(prog, false)
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	spec := checker.Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  injections,
		Exec:        exec,
		Predicate:   checker.HaltedOutputOtherThan(1),
		StateBudget: 30_000,
		MaxFindings: 10,
	}
	var states, findings int
	for i := 0; i < b.N; i++ {
		rep, err := checker.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		states = rep.TotalStates
		findings = len(rep.Findings)
		flip := false
		for _, f := range rep.Findings {
			vals := f.State.OutputValues()
			if len(vals) == 1 && vals[0].Equal(isa.Int(2)) {
				flip = true
			}
		}
		if !flip {
			b.Fatal("catastrophic flip not found")
		}
	}
	b.ReportMetric(float64(len(injections)), "injections/op")
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(findings), "findings/op")
}

// BenchmarkAblationActivatedPolicy: the paper's optimization (Section 6.2).
func BenchmarkAblationActivatedPolicy(b *testing.B) { benchActivationPolicy(b, true) }

// BenchmarkAblationExhaustivePolicy: the raw instructions x registers space.
func BenchmarkAblationExhaustivePolicy(b *testing.B) { benchActivationPolicy(b, false) }

// benchParallelSweep runs the tcas register sweep through checker.RunCtx at
// the given parallelism. ns/op is the wall clock; states/op and findings/op
// must not move between the sequential and parallel variants — the sweep
// explores the identical space, only faster.
func benchParallelSweep(b *testing.B, parallelism int) {
	b.Helper()
	prog := tcas.Program()
	injections := faults.RegisterInjectionsUsed(prog)
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	spec := checker.Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  injections,
		Exec:        exec,
		Predicate:   checker.HaltedOutputOtherThan(1),
		StateBudget: 2000,
		Parallelism: parallelism,
	}
	states, findings := 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := checker.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		states = rep.TotalStates
		findings = len(rep.Findings)
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(findings), "findings/op")
}

// BenchmarkParallelSweepSequential is the single-core baseline.
func BenchmarkParallelSweepSequential(b *testing.B) { benchParallelSweep(b, 1) }

// BenchmarkParallelSweepAllCores fans the same sweep across every core.
func BenchmarkParallelSweepAllCores(b *testing.B) { benchParallelSweep(b, 0) }

// benchMergedSweep runs the full tcas register sweep with a budget high
// enough that every injection completes, merged or plain, so states/op
// compares total exploration work rather than where two searches truncate.
// findings/op must not move between the two variants — post-dominator
// merging and cycle acceleration change only how many physical state
// observations the identical verdicts cost (EXPERIMENTS.md E12).
func benchMergedSweep(b *testing.B, merge bool) {
	b.Helper()
	prog := tcas.Program()
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	spec := checker.Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  faults.RegisterInjectionsUsed(prog),
		Exec:        exec,
		Predicate:   checker.HaltedOutputOtherThan(1),
		StateBudget: 150_000,
		MergeStates: merge,
	}
	states, findings := 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := checker.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		states = rep.TotalStates
		findings = len(rep.Findings)
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(findings), "findings/op")
}

// BenchmarkMergedSweepOff is the plain-exploration baseline for E12.
func BenchmarkMergedSweepOff(b *testing.B) { benchMergedSweep(b, false) }

// BenchmarkMergedSweep explores the same sweep with MergeStates on.
func BenchmarkMergedSweep(b *testing.B) { benchMergedSweep(b, true) }

// benchSummaryBuild measures building the tcas function-summary set
// (partition, SCC keys, per-function taint fixpoints, continuation
// fixpoint) against a cache: nil for the cold path, a pre-warmed cache for
// the warm path. functions/op and hits/op report what the build did.
func benchSummaryBuild(b *testing.B, warm bool) {
	b.Helper()
	prog := tcas.Program()
	var cache *summary.Cache
	if warm {
		cache = summary.NewCache(0, nil)
		summary.Build(prog, nil, cache)
	}
	var stats summary.BuildStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats = summary.Build(prog, nil, cache).Stats
	}
	b.ReportMetric(float64(stats.Functions), "functions/op")
	b.ReportMetric(float64(len(stats.Hits)), "hits/op")
}

// BenchmarkSummaryCacheCold builds every summary from scratch.
func BenchmarkSummaryCacheCold(b *testing.B) { benchSummaryBuild(b, false) }

// BenchmarkSummaryCacheWarm re-builds against a fully warmed cache: the
// content-addressed fast path an unchanged re-analysis takes.
func BenchmarkSummaryCacheWarm(b *testing.B) { benchSummaryBuild(b, true) }
