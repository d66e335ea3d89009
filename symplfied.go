// Package symplfied is a Go implementation of SymPLFIED — the Symbolic
// Program-Level Fault Injection and Error Detection framework of
// Pattabiraman, Nakka, Kalbarczyk and Iyer (DSN 2008).
//
// SymPLFIED takes a program in a generic assembly language, optionally
// protected with error detectors, and a class of transient hardware errors,
// and exhaustively enumerates the errors in that class that evade the
// detectors and lead to program failure (crash, hang, or incorrect output).
// Erroneous values are abstracted by a single symbolic value err; a
// constraint solver prunes infeasible forks; bounded model checking explores
// every nondeterministic resolution.
//
// The API is context-first: every engine entry point is a Ctx function that
// honors cancellation and deadlines by returning the partial results
// gathered so far (marked Interrupted) instead of discarding completed work.
// The un-suffixed names (Search, Study, Campaign, ...) are one-line
// conveniences over their Ctx twins with an un-cancellable context. A
// typical workflow:
//
//	u, _ := symplfied.Assemble("factorial", src)       // or TranslateMIPS
//	res := symplfied.Execute(u.Program, []int64{5}, symplfied.ExecConfig{})
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	rep, _ := symplfied.SearchCtx(ctx, symplfied.SearchSpec{ // symbolic search
//	    Unit:  u,
//	    Input: []int64{5},
//	    Class: symplfied.ClassRegister,
//	    Goal:  symplfied.GoalIncorrectOutput,
//	    Limits: symplfied.Limits{StateBudget: 50_000},
//	    Parallelism: 0, // 0: all cores; the merged report is identical either way
//	})
//	camp, _ := symplfied.CampaignCtx(ctx, symplfied.CampaignSpec{...},
//	    symplfied.CampaignResilience{}) // concrete baseline
//
// Subsystem packages under internal/ implement the machine model, error
// model, detector model, constraint solver, model checker, cluster harness,
// MIPS front end, and the paper's benchmark applications.
package symplfied

import (
	"context"
	"fmt"
	"time"

	"symplfied/internal/asm"
	"symplfied/internal/campaign"
	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/crossval"
	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/harden"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/mips"
	"symplfied/internal/query"
	"symplfied/internal/simplescalar"
	"symplfied/internal/summary"
	"symplfied/internal/symexec"
)

// Core vocabulary, re-exported.
type (
	// Program is an assembled program in the generic assembly language.
	Program = isa.Program
	// Instr is one decoded instruction.
	Instr = isa.Instr
	// Reg names a general-purpose register.
	Reg = isa.Reg
	// Value is a machine word: a concrete integer or the symbolic err.
	Value = isa.Value
	// Loc names a register or memory word.
	Loc = isa.Loc
	// Exception records an abnormal termination.
	Exception = isa.Exception
	// Detector is one error detector (det(ID, loc, cmp, expr)).
	Detector = detector.Detector
	// DetectorTable holds a program's detectors.
	DetectorTable = detector.Table
	// Unit is an assembled program plus its detectors.
	Unit = asm.Unit
	// Injection is one injectable fault.
	Injection = faults.Injection
	// ErrorClass selects a fault class.
	ErrorClass = faults.Class
	// Goal selects what a search looks for.
	Goal = query.Goal
	// Finding is a terminal state matching a search goal.
	Finding = checker.Finding
	// Report aggregates a sequential search.
	Report = checker.Report
	// State is a symbolic machine state (findings carry their final state,
	// including the decision trace and constraint store).
	State = symexec.State
	// Outcome classifies a terminated execution.
	Outcome = symexec.Outcome
	// TaskReport is the result of one cluster task.
	TaskReport = cluster.TaskReport
	// StudySummary pools cluster task reports.
	StudySummary = cluster.Summary
	// CampaignReport tallies a concrete fault-injection campaign.
	CampaignReport = simplescalar.Report
	// Component names a code region for compositional analysis.
	Component = checker.Component
	// ComponentProof records a component's isolated verdict.
	ComponentProof = checker.ComponentProof
	// Verdict is the framework's overall answer: proven resilient,
	// refuted (with findings), or inconclusive.
	Verdict = checker.Verdict
)

// Verdicts.
const (
	VerdictProven       = checker.VerdictProven
	VerdictRefuted      = checker.VerdictRefuted
	VerdictInconclusive = checker.VerdictInconclusive
)

// Error classes (paper Sections 3.3 and 5.2).
const (
	ClassRegister = faults.ClassRegister
	ClassMemory   = faults.ClassMemory
	ClassControl  = faults.ClassControl
	ClassDecode   = faults.ClassDecode
)

// Search goals (predefined queries, paper Section 5's query generator).
const (
	GoalErrOutput       = query.GoalErrOutput
	GoalIncorrectOutput = query.GoalIncorrectOutput
	GoalWrongAdvisory   = query.GoalWrongAdvisory
	GoalCrash           = query.GoalCrash
	GoalHang            = query.GoalHang
	GoalDetected        = query.GoalDetected
)

// Outcomes.
const (
	OutcomeNormal   = symexec.OutcomeNormal
	OutcomeCrash    = symexec.OutcomeCrash
	OutcomeHang     = symexec.OutcomeHang
	OutcomeDetected = symexec.OutcomeDetected
)

// Assemble parses a program in SymPLFIED's assembly syntax (see package
// internal/asm for the grammar), returning the program and any detector
// specifications found in the source.
func Assemble(name, src string) (*Unit, error) { return asm.Parse(name, src) }

// ParseDetector parses a det(ID, loc, cmp, expr) specification.
func ParseDetector(spec string) (*Detector, error) { return detector.Parse(spec) }

// TranslateMIPS translates MIPS-dialect assembly (see package internal/mips
// for the supported subset) into a program.
func TranslateMIPS(name, src string) (*Program, error) { return mips.Translate(name, src) }

// ExecConfig configures a concrete execution.
type ExecConfig struct {
	// Watchdog bounds executed instructions (0: a conservative default).
	Watchdog int
	// Detectors supplies CHECK targets.
	Detectors *DetectorTable
}

// ExecResult summarizes a concrete execution.
type ExecResult struct {
	// Halted is true for a normal termination.
	Halted bool
	// Exception is the terminating exception for abnormal ones.
	Exception *Exception
	// Output is the rendered output stream.
	Output string
	// Values are the printed values.
	Values []Value
	// Steps counts executed instructions.
	Steps int
}

// Execute runs a program concretely on the machine model.
func Execute(prog *Program, input []int64, cfg ExecConfig) ExecResult {
	m := machine.New(prog, input, machine.Options{
		Watchdog:  cfg.Watchdog,
		Detectors: cfg.Detectors,
	})
	res := m.Run()
	return ExecResult{
		Halted:    res.Status == machine.StatusHalted,
		Exception: res.Exception,
		Output:    machine.RenderOutput(res.Output),
		Values:    machine.OutputValues(res.Output),
		Steps:     res.Steps,
	}
}

// Limits gathers the budget knobs shared by every search-shaped entry point:
// SearchSpec embeds it for the per-injection limits of a flat search, and
// StudyConfig embeds it for the per-task limits of a decomposed study. The
// fields promote, so the historical flat names keep working as aliases —
// s.StateBudget reads and writes s.Limits.StateBudget.
type Limits struct {
	// Watchdog bounds each symbolic path in executed instructions
	// (0: default). It is the hang detector: a path that exceeds the
	// watchdog terminates with OutcomeHang.
	Watchdog int
	// StateBudget bounds explored states — per injection under SearchSpec,
	// per task under StudyConfig (0: defaults; see checker.DefaultStateBudget
	// and cluster.DefaultTaskStateBudget).
	StateBudget int
	// MaxFindings caps collected findings per injection (SearchSpec) or per
	// task (StudyConfig); 0 means unlimited. The cap truncates what is
	// recorded, never what is explored, so tallies and outcomes are
	// unaffected.
	MaxFindings int
	// PerInjectionTimeout bounds the wall clock spent on any single
	// injection, the analogue of the paper's per-task cluster allotment
	// alongside the deterministic state budget (0: none). An expired
	// deadline marks that injection's report TimedOut and downgrades an
	// otherwise-empty verdict to inconclusive.
	PerInjectionTimeout time.Duration
}

// SearchSpec describes a symbolic fault-injection search.
type SearchSpec struct {
	// Unit is the program under analysis (with its detectors).
	Unit *Unit
	// Input is the program input.
	Input []int64
	// Class selects the fault class to enumerate; ignored when Injections
	// is non-empty.
	Class ErrorClass
	// Injections overrides the enumerated fault class with an explicit set.
	Injections []Injection
	// Goal selects the search predicate.
	Goal Goal
	// Limits holds the per-injection budget knobs (Watchdog, StateBudget,
	// MaxFindings, PerInjectionTimeout). The fields promote: the flat
	// selectors predating the Limits extraction (s.Watchdog, s.StateBudget,
	// ...) are aliases for the embedded fields and keep working unchanged.
	Limits
	// Parallelism fans the injection sweep across a worker pool: 0 selects
	// all cores (GOMAXPROCS), 1 forces the sequential sweep. The merged
	// report of an uninterrupted run is byte-identical at any parallelism;
	// like all operational knobs it never enters the campaign fingerprint.
	Parallelism int
	// DisableAffineSolver reverts to the paper's coarser constraint model
	// (every propagated err loses lineage) for ablation.
	DisableAffineSolver bool
	// Permanent turns every register/memory injection into a stuck-at
	// fault (the paper's future-work extension: permanent errors).
	Permanent bool
	// DiscardStates drops terminal symbolic states from findings once their
	// summaries are captured, bounding memory on huge campaigns. Findings
	// then have State == nil; Describe still works.
	DiscardStates bool
	// UseSummaries elides explorations a compositional fault summary proves
	// benign: per-function taint summaries, composed across call sites and
	// return continuations, show the injected err reaches no output, no
	// detector read, and no control decision (each such report is marked
	// Summarized), so one representative exploration per breakpoint stands
	// in for all benign registers there. It covers every register a liveness
	// proof shows dead at the breakpoint (overwritten on every path before
	// any read) and also taint that dies later, or in a callee, at the cost
	// of the calling-convention assumption documented on summary.Partition.
	// Verdicts are identical to a plain run's; operational like
	// Parallelism: excluded from the campaign fingerprint.
	// See internal/summary, and SYMPLFIED_CHECK_SUMMARIES to audit the
	// proof on a live run.
	UseSummaries bool
	// MergeStates explores each injection with post-dominator state merging
	// and cycle acceleration (checker.Spec.MergeStates): states that rejoin
	// at control-flow merge points with identical skeletons are stepped once
	// for all of them, and deterministic or affine watchdog-bound loops are
	// fast-forwarded instead of stepped lap by lap. Verdicts, outcome
	// tallies and findings are identical to the plain exploration's; only
	// StatesExplored (physical state observations) drops. Operational like
	// Parallelism: excluded from the campaign fingerprint. See
	// internal/checker's merge.go, and SYMPLFIED_CHECK_MERGING to audit the
	// equivalence on a live run.
	MergeStates bool
	// SummaryCache, when non-nil with UseSummaries, caches per-function
	// summaries under content-addressed keys so re-analysis after an edit
	// recomputes only the changed functions and their transitive callers.
	// Back it with OpenSummaryDiskStore to persist across processes.
	SummaryCache *SummaryCache
}

func (s SearchSpec) build() (checker.Spec, error) {
	if s.Unit == nil || s.Unit.Program == nil {
		return checker.Spec{}, fmt.Errorf("symplfied: SearchSpec.Unit is required")
	}
	exec := symexec.DefaultOptions()
	if s.Watchdog > 0 {
		exec.Watchdog = s.Watchdog
	}
	exec.AffineTracking = !s.DisableAffineSolver
	q := query.Query{Class: s.Class, Goal: s.Goal, Exec: exec}
	spec, err := q.Build(s.Unit.Program, s.Unit.Detectors, s.Input)
	if err != nil {
		return checker.Spec{}, err
	}
	if len(s.Injections) > 0 {
		spec.Injections = s.Injections
	}
	if s.Permanent {
		spec.Injections = faults.PermanentVariant(spec.Injections)
	}
	spec.StateBudget = s.StateBudget
	spec.MaxFindings = s.MaxFindings
	spec.PerInjectionTimeout = s.PerInjectionTimeout
	spec.Parallelism = s.Parallelism
	spec.DiscardStates = s.DiscardStates
	spec.UseSummaries = s.UseSummaries
	spec.SummaryCache = s.SummaryCache
	spec.MergeStates = s.MergeStates
	return spec, nil
}

// CheckerSpec lowers the search description to the internal checker spec.
// The distributed harness (internal/dist) lowers the same declarative spec
// document through this single path on both the coordinator and every
// worker, so all parties provably build the identical search — the campaign
// fingerprint (internal/campaign.Fingerprint) then verifies the agreement.
func (s SearchSpec) CheckerSpec() (checker.Spec, error) { return s.build() }

// Search is SearchCtx with an un-cancellable context.
func Search(s SearchSpec) (*Report, error) { return SearchCtx(context.Background(), s) }

// SearchCtx runs a symbolic fault-injection search and returns the checker
// report: every enumerated error in the class that satisfies the goal, with
// decision traces and derived constraints. The sweep fans across
// s.Parallelism cores (0: all); the merged report is deterministic
// regardless. Cancellation (or an expired deadline) returns the partial
// report gathered so far, marked Interrupted, instead of discarding
// completed work.
func SearchCtx(ctx context.Context, s SearchSpec) (*Report, error) {
	spec, err := s.build()
	if err != nil {
		return nil, err
	}
	return checker.RunCtx(ctx, spec)
}

// RunnerConfig configures the resilient campaign runner (SearchResilient):
// checkpoint journaling, resume, transient-failure retries with graceful
// degradation, and worker-pool parallelism.
type RunnerConfig = campaign.Config

// RunnerStats reports what the resilient runner did: injections resumed from
// the journal vs executed, retries, isolated panics, deadline expiries.
type RunnerStats = campaign.Stats

// SearchResilient runs a symbolic search through the checkpointing campaign
// runner: completed injections are journaled as they finish, a killed run
// resumes from the journal (skipping already-explored injections after a
// spec-fingerprint check), injections that panic or exceed the per-injection
// deadline are retried with reduced budgets, and the merged report equals an
// uninterrupted run's. See internal/campaign.
func SearchResilient(ctx context.Context, s SearchSpec, cfg RunnerConfig) (*Report, RunnerStats, error) {
	spec, err := s.build()
	if err != nil {
		return nil, RunnerStats{}, err
	}
	return campaign.Run(ctx, spec, cfg)
}

// StudyConfig configures a decomposed (cluster-style) search, the paper's
// Section 6 experiment harness.
type StudyConfig struct {
	// Tasks is the decomposition width (paper: 150 for tcas, 312 for
	// replace).
	Tasks int
	// Limits holds the per-task budget knobs under their shared names:
	// StateBudget bounds each task (the analogue of the paper's 30-minute
	// allotment; 0 selects a default) and MaxFindings caps findings per task
	// (paper: 10). Watchdog and PerInjectionTimeout, when set, override the
	// SearchSpec's for the study.
	Limits
	// TaskStateBudget is the historical alias for Limits.StateBudget; when
	// both are set the alias wins.
	TaskStateBudget int
	// MaxFindingsPerTask is the historical alias for Limits.MaxFindings;
	// when both are set the alias wins.
	MaxFindingsPerTask int
	// Workers sizes the task pool (0: GOMAXPROCS).
	Workers int
	// Parallelism fans each task's own injection sweep across cores
	// (checker.Spec.Parallelism semantics). It only takes effect when the
	// task pool is not already saturating the machine — i.e. a single-task
	// study or Workers: 1 — since cluster.RunCtx keeps a multi-task pool
	// from oversubscribing the cores.
	Parallelism int
	// UseSummaries enables SearchSpec.UseSummaries for the whole study: one
	// shared summary set and representative memo span every task, so a
	// benign site's exploration is reused across task boundaries.
	UseSummaries bool
	// MergeStates enables SearchSpec.MergeStates for the whole study: one
	// shared control-flow analysis spans every task, and each task's
	// injections are explored with post-dominator state merging and cycle
	// acceleration. Task reports and the pooled summary are identical to the
	// plain study's apart from the Merged markers and the lower state
	// counts.
	MergeStates bool
	// SummaryCache backs the study's summary build (see
	// SearchSpec.SummaryCache).
	SummaryCache *SummaryCache
}

// Study is StudyCtx with an un-cancellable context.
func Study(s SearchSpec, cfg StudyConfig) ([]TaskReport, StudySummary, error) {
	return StudyCtx(context.Background(), s, cfg)
}

// StudyCtx runs a symbolic search decomposed into independent tasks over a
// worker pool and returns the per-task reports plus their pooled summary.
// Cancellation propagates to every worker; the pooled summary covers the
// partial results, with cut-short tasks marked Interrupted, rather than
// returning nothing.
func StudyCtx(ctx context.Context, s SearchSpec, cfg StudyConfig) ([]TaskReport, StudySummary, error) {
	spec, err := s.build()
	if err != nil {
		return nil, StudySummary{}, err
	}
	if cfg.Limits.Watchdog > 0 {
		spec.Exec.Watchdog = cfg.Limits.Watchdog
	}
	if cfg.Limits.PerInjectionTimeout > 0 {
		spec.PerInjectionTimeout = cfg.Limits.PerInjectionTimeout
	}
	if cfg.Parallelism != 0 {
		spec.Parallelism = cfg.Parallelism
	}
	if cfg.UseSummaries {
		spec.UseSummaries = true
	}
	if cfg.MergeStates {
		spec.MergeStates = true
	}
	if cfg.SummaryCache != nil {
		spec.SummaryCache = cfg.SummaryCache
	}
	budget := cfg.TaskStateBudget
	if budget == 0 {
		budget = cfg.Limits.StateBudget
	}
	findings := cfg.MaxFindingsPerTask
	if findings == 0 {
		findings = cfg.Limits.MaxFindings
	}
	tasks := cluster.Split(spec.Injections, cfg.Tasks)
	reports := cluster.RunCtx(ctx, spec, tasks, cluster.Config{
		Workers:            cfg.Workers,
		TaskStateBudget:    budget,
		MaxFindingsPerTask: findings,
	})
	return reports, cluster.Summarize(reports), nil
}

// SummaryCache is the content-addressed LRU cache of per-function fault
// summaries (see internal/summary). A cache is safe for concurrent use and
// may be shared across searches, studies, and campaign resumes; keys are
// canonical hashes of function bodies plus the detector lines they check,
// so entries for edited code become unreachable rather than stale.
type SummaryCache = summary.Cache

// SummaryStore is the persistence interface behind a SummaryCache.
type SummaryStore = summary.Store

// NewSummaryCache builds a summary cache bounded to capacity entries
// (0: a default), optionally backed by a store (nil: memory only).
func NewSummaryCache(capacity int, store SummaryStore) *SummaryCache {
	return summary.NewCache(capacity, store)
}

// OpenSummaryDiskStore opens (creating if needed) an append-only JSONL
// summary store under dir, giving SummaryCache persistence across
// processes: a warm re-analysis after an edit recomputes only the changed
// functions and their transitive callers.
func OpenSummaryDiskStore(dir string) (*summary.DiskStore, error) {
	return summary.OpenDiskStore(dir)
}

// SearchGraph is the explored search graph of one injection (paper
// Section 5.4's "print out the search graph" facility), renderable as
// Graphviz DOT.
type SearchGraph = checker.Graph

// ExploreSearchGraph is ExploreSearchGraphCtx with an un-cancellable context.
func ExploreSearchGraph(s SearchSpec, inj Injection, maxNodes int) (*SearchGraph, error) {
	return ExploreSearchGraphCtx(context.Background(), s, inj, maxNodes)
}

// ExploreSearchGraphCtx explores one injection breadth-first, recording
// every state and its parent, up to maxNodes (0: a default bound).
// Cancellation returns the partial graph marked Truncated.
func ExploreSearchGraphCtx(ctx context.Context, s SearchSpec, inj Injection, maxNodes int) (*SearchGraph, error) {
	spec, err := s.build()
	if err != nil {
		return nil, err
	}
	return checker.ExploreGraphCtx(ctx, spec, inj, maxNodes)
}

// SearchComposed is SearchComposedCtx with an un-cancellable context.
func SearchComposed(s SearchSpec, components []Component) (*Report, []ComponentProof, error) {
	return SearchComposedCtx(context.Background(), s, components)
}

// SearchComposedCtx runs the paper's hierarchical analysis (Section 3.4):
// each component is proved in isolation; injections inside proven components
// are pruned from the whole-program search. Cancellation interrupts the
// running search; an interrupted component proof is inconclusive and never
// prunes injections it did not fully cover.
func SearchComposedCtx(ctx context.Context, s SearchSpec, components []Component) (*Report, []ComponentProof, error) {
	spec, err := s.build()
	if err != nil {
		return nil, nil, err
	}
	return checker.RunComposedCtx(ctx, spec, components)
}

// EnumerateInjections lists the injections of a class over a program with
// the paper's activation policy.
func EnumerateInjections(class ErrorClass, prog *Program) []Injection {
	return faults.ForClass(class, prog)
}

// CampaignSpec describes a concrete (SimpleScalar-style) fault-injection
// campaign, the paper's baseline.
type CampaignSpec struct {
	Unit  *Unit
	Input []int64
	// Faults is the campaign size (0: the full site cross product).
	Faults int
	// Seed drives random value selection (deterministic).
	Seed int64
	// RandomPerReg is the number of random values per site on top of the
	// three extremes (0: 3, the paper's choice).
	RandomPerReg int
	// Watchdog bounds each run.
	Watchdog int
	// AllowedOutputs classifies normal runs by their single printed value
	// when it is among these (e.g. 0, 1, 2 for tcas); others are "other".
	AllowedOutputs []int64
}

// Campaign is CampaignCtx with an un-cancellable context and no
// checkpointing.
func Campaign(c CampaignSpec) (*CampaignReport, error) {
	return CampaignCtx(context.Background(), c, CampaignResilience{})
}

// CampaignResilience configures checkpoint/resume for a concrete campaign.
type CampaignResilience = simplescalar.Resilience

// CampaignCtx runs the concrete baseline campaign, tallying outcomes into
// Table 2's buckets, with optional checkpointing: completed injections are
// journaled as they finish and a killed campaign resumes from the journal.
// Cancellation returns the partial tallies marked Interrupted.
func CampaignCtx(ctx context.Context, c CampaignSpec, r CampaignResilience) (*CampaignReport, error) {
	if c.Unit == nil || c.Unit.Program == nil {
		return nil, fmt.Errorf("symplfied: CampaignSpec.Unit is required")
	}
	return simplescalar.RunResilient(ctx, simplescalar.Config{
		Program:       c.Unit.Program,
		Input:         c.Input,
		Detectors:     c.Unit.Detectors,
		Watchdog:      c.Watchdog,
		Classify:      simplescalar.SingleValueClassifier(c.AllowedOutputs...),
		Seed:          c.Seed,
		RandomPerReg:  c.RandomPerReg,
		MaxInjections: c.Faults,
	}, r)
}

// Cross-validation (internal/crossval): differential testing of the symbolic
// engine against the concrete machine. A campaign runs seeded concrete
// injections over every site and diffs each outcome against the symbolic
// terminal set of the same site; a conclusive SymbolicMiss in the report is
// an unsoundness in the engine.
type (
	// CrossvalSpec describes one cross-validation campaign.
	CrossvalSpec = crossval.Spec
	// CrossvalConfig carries the operational knobs of a sweep (parallelism,
	// checkpoint/resume); none affect verdicts or report bytes.
	CrossvalConfig = crossval.Config
	// CrossvalReport is the deterministic campaign summary; see Sound.
	CrossvalReport = crossval.Report
	// CrossvalMismatch is one concrete↔symbolic disagreement with its repro.
	CrossvalMismatch = crossval.Mismatch
	// CrossvalClass discriminates mismatch kinds.
	CrossvalClass = crossval.Class
)

// Crossval mismatch classes.
const (
	// CrossvalSymbolicMiss: a concrete outcome the symbolic terminal set does
	// not cover — unsoundness.
	CrossvalSymbolicMiss = crossval.SymbolicMiss
	// CrossvalConcreteMiss: a symbolic outcome no concrete trial reproduced —
	// expected; the symbolic engine is strictly stronger.
	CrossvalConcreteMiss = crossval.ConcreteMiss
	// CrossvalClassDrift: the engines disagree on the crash/hang/detect class
	// or on whether the site was reached.
	CrossvalClassDrift = crossval.ClassDrift
)

// CrossValidate runs a cross-validation campaign with default operational
// settings.
func CrossValidate(spec CrossvalSpec) (*CrossvalReport, error) {
	return CrossValidateCtx(context.Background(), spec, CrossvalConfig{})
}

// CrossValidateCtx runs a cross-validation campaign under ctx with
// checkpoint/resume support. Cancellation returns the partial report with
// Interrupted set.
func CrossValidateCtx(ctx context.Context, spec CrossvalSpec, cfg CrossvalConfig) (*CrossvalReport, error) {
	return crossval.RunCtx(ctx, spec, cfg)
}

// Detector hardening (the automatic counterpart of examples/hardening's
// manual workflow), re-exported from internal/harden.
type (
	// HardenOptions tunes the hardening pass; the zero value selects
	// sensible defaults.
	HardenOptions = harden.Options
	// HardenResult reports gaps found, detectors synthesized, and
	// before/after detection coverage.
	HardenResult = harden.Result
	// HardenGap records what happened to one coverage gap.
	HardenGap = harden.GapReport
	// HardenSite compares one injection site before and after hardening.
	HardenSite = harden.SiteCoverage
	// HardenStrategy names a CHECK synthesis tactic.
	HardenStrategy = harden.Strategy
)

// Synthesis strategies, in the order the synthesizer tries them.
const (
	HardenInvariant = harden.StrategyInvariant
	HardenRange     = harden.StrategyRange
	HardenDuplicate = harden.StrategyDuplicate
)

// Harden runs the detector-hardening compiler pass on a unit: coverage-gap
// analysis, CHECK synthesis, splice, fault-free gate, and verified
// re-coverage (targeted symbolic sweeps plus a crossval spot-check).
func Harden(u *Unit, input []int64, opt HardenOptions) (*HardenResult, error) {
	return HardenCtx(context.Background(), u, input, opt)
}

// HardenCtx is Harden under a context.
func HardenCtx(ctx context.Context, u *Unit, input []int64, opt HardenOptions) (*HardenResult, error) {
	return harden.HardenCtx(ctx, harden.Spec{Program: u.Program, Detectors: u.Detectors, Input: input}, opt)
}
