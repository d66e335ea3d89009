// Package checker implements SymPLFIED's bounded model checker (paper
// Section 5.4): the analogue of Maude's search command. For each injection in
// a fault class it concretely executes the program up to the injection
// breakpoint (the paper's activation optimization), manifests the symbolic
// error, then exhaustively explores the nondeterministic successor relation
// breadth-first, classifying every terminal state and collecting those that
// satisfy the user predicate ("errors that evade detection and potentially
// lead to program failure").
//
// Most of a search's states hold no err at all: a store overwrote it, a
// constraint pinned it to one value, a jump through it resolved. The plain
// explorer hands such a state (symexec.State.ErrFree: no term in its store,
// no stuck-at location) to the concrete machine, which runs it at
// interpreter speed in chunks of at most tailChunk states, with a ctx poll
// before each, and writes the result back (symexec.State.RunConcrete). The
// hand-off is exact: the state, its trace notes and its watchdog tally come
// out as the StepInPlace calls it replaces would leave them, and it counts
// one state per executed or skipped instruction, plus one for a raise that
// executes none, so a budget cuts off at the same state and reports do not
// change by a byte. The machine skips the laps of a hang it can prove
// repeat — an exact recurrence, or an affine register map under the proof
// the merged explorer's accelerator uses too (machine.AffineLapOK) — and
// the skipped steps count as states as if they had run. The machine stops
// before every CHECK, which the symbolic step runs. The merged explorer
// steps symbolically throughout: its states park at post-dominators, which
// a concrete tail would run past.
//
// The checker is hardened for long campaigns (the paper ran its searches as
// cluster tasks with a 30-minute wall-clock allotment precisely because big
// symbolic searches die, hang and blow memory): RunCtx and RunInjectionCtx
// honor context cancellation and per-injection wall-clock deadlines, and a
// recover boundary isolates a panicking injection into its report instead of
// killing the whole campaign. See internal/campaign for the checkpointing
// runner built on top, and internal/cluster for the decomposed parallel
// driver.
package checker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/summary"
	"symplfied/internal/symbolic"
	"symplfied/internal/symexec"
	"symplfied/internal/trace"
)

// Live instruments on the default registry, resolved once so the BFS hot
// loop pays one atomic op per event, not a registry lookup. These feed
// -metrics-addr scrapes and the -progress line; the deterministic tallies
// that travel inside reports live in InjectionReport.Exec instead.
var (
	liveStates       = obs.Default().Counter(obs.MStates)
	liveFindings     = obs.Default().Counter(obs.MFindings)
	liveFrontier     = obs.Default().Gauge(obs.MFrontier)
	liveInjections   = obs.Default().Counter(obs.MInjections)
	liveInjTimeouts  = obs.Default().Counter(obs.MInjTimeouts)
	liveInjPanics    = obs.Default().Counter(obs.MInjPanics)
	liveInternHits   = obs.Default().Gauge(obs.MInternHits)
	liveInternMisses = obs.Default().Gauge(obs.MInternMisses)
	liveTailStates   = obs.Default().Counter(obs.MConcreteTail)
	liveTailSkipped  = obs.Default().Counter(obs.MConcreteTailSkipped)
)

// DefaultStateBudget bounds the states explored per injection when the spec
// does not say otherwise. Budgets replace the paper's 30-minute wall-clock
// task allotment so runs are deterministic.
const DefaultStateBudget = 100_000

// tailChunk bounds the states one hand-off to the concrete machine may use,
// so the explorer polls ctx at least every tailChunk states of a tail.
const tailChunk = 4096

// ctxCheckMask gates how often the breadth-first loop polls ctx.Err(): every
// (ctxCheckMask+1) explored states. Polling is cheap but not free; 64 states
// keeps cancellation latency far below any human-visible delay.
const ctxCheckMask = 63

// stateTally publishes an exploration's state count to the process-global
// liveStates counter in batches — at each ctx poll, and the remainder
// however the exploration exits — so parallel sweeps do not contend on the
// counter once per state, and the counter is exact when an injection ends.
type stateTally struct {
	ir        *InjectionReport
	published int
}

func (t *stateTally) flush() {
	liveStates.Add(int64(t.ir.StatesExplored - t.published))
	t.published = t.ir.StatesExplored
}

// Predicate selects the final states a search is looking for, corresponding
// to the "such that" clause of the paper's search command.
type Predicate struct {
	// Name describes the predicate in reports.
	Name string
	// Match examines a terminal state.
	Match func(*symexec.State) bool
}

// Spec describes one search.
type Spec struct {
	Program   *isa.Program
	Detectors *detector.Table
	Input     []int64
	// Injections is the fault class to sweep (one symbolic error per
	// execution, as in the paper's experiments).
	Injections []faults.Injection
	// Exec configures the symbolic executor.
	Exec symexec.Options
	// Predicate selects interesting terminal states.
	Predicate Predicate
	// MaxFindings caps collected findings per injection; 0 means unlimited.
	// (The paper capped each search task at 10 errors.)
	MaxFindings int
	// StateBudget bounds explored states per injection; 0 selects
	// DefaultStateBudget.
	StateBudget int
	// PerInjectionTimeout bounds the wall clock spent on a single injection,
	// the analogue of the paper's per-task time allotment alongside the
	// deterministic state budget. 0 means no wall-clock deadline. An expired
	// deadline marks the injection report TimedOut (and Interrupted); results
	// collected up to that point are a sound subset.
	PerInjectionTimeout time.Duration
	// Dedup enables visited-state deduplication. States are keyed on the
	// full configuration including the step counter, so deduplication only
	// merges genuinely identical interleavings and never masks hangs. Keys
	// are 64-bit hashes of the canonical state encoding (see
	// symexec.State.KeyHash); set symexec.CheckKeyCollisions to audit them
	// against the full encodings.
	Dedup bool
	// Parallelism sizes the worker pool RunCtx fans the injection sweep
	// across: 0 selects GOMAXPROCS, 1 forces the sequential sweep, and the
	// pool never exceeds the injection count. The merged report of an
	// uninterrupted parallel run is byte-identical to the sequential run's
	// (injection reports and findings in injection order, ExecStats merged
	// commutatively); only wall-clock-dependent outcomes (an expired
	// PerInjectionTimeout) can differ, exactly as they already do between
	// two sequential runs on different machines. Parallelism is an
	// operational knob: it never changes what is explored, and is therefore
	// excluded from the campaign fingerprint.
	Parallelism int
	// DiscardStates drops the terminal *symexec.State from findings once the
	// finding's summary fields (Outcome, Output, Sym) are captured, bounding
	// campaign memory: a retained state pins its memory image, constraint
	// store and trace. Leave false to keep full states for trace printing
	// and search-graph rendering.
	DiscardStates bool
	// UseSummaries turns on compositional summary-based elision
	// (internal/summary): the program is partitioned into functions, each
	// function's fault summary is computed (or loaded from SummaryCache) once,
	// and a transient register injection the composed summaries prove benign —
	// the err provably reaches no output, detector, or control decision on any
	// continuation — reuses the site's fault-free representative exploration,
	// marked Summarized. This generalizes the paper's Section 6.1 syntactic
	// pruning (inject only into registers the instruction uses) with a
	// dataflow proof: it covers every register liveness proves dead at a site
	// the function partition reaches, and also taint that dies later, across
	// call boundaries
	// (TestSummariesCoverLiveness pins the counts). Like Parallelism, this is
	// an operational knob excluded from the campaign fingerprint: verdicts
	// and report bytes are unchanged modulo Summarized markers. Set
	// SYMPLFIED_CHECK_SUMMARIES to have every reuse re-explored and asserted
	// identical.
	UseSummaries bool
	// SummaryCache optionally backs the summary build with a content-addressed
	// cache (in-memory LRU plus disk or coordinator store), making re-analysis
	// of unchanged functions a pure cache hit. Never serialized.
	SummaryCache *summary.Cache `json:"-"`
	// Summaries carries the built summary set and the per-site representative
	// memo for a summarized sweep, populated by RunCtx (or EnsureSummaries)
	// when UseSummaries is set. Never serialized.
	Summaries *SummaryContext `json:"-"`
	// MergeStates turns on post-dominator state merging (the program-level
	// analogue of veritesting's static merging): symbolic states that rejoin
	// at a control-flow merge point (internal/analysis post-dominators) with
	// identical concrete skeletons are fused into one representative carrying
	// the sibling worlds' constraint stores as a disjunction, the instructions
	// that cannot distinguish the worlds are executed once for all of them,
	// and deterministic event-free cycles are fast-forwarded to the watchdog.
	// Verdicts, terminal tallies and findings are unchanged (see MergeContext);
	// StatesExplored counts physical state observations, so merged reports
	// show the savings directly. Set SYMPLFIED_CHECK_MERGING to re-explore
	// every merged injection unmerged and panic on any drift. Like
	// UseSummaries, this is an operational knob excluded from the campaign
	// fingerprint.
	MergeStates bool
	// Merge carries the shared control-flow analysis for a merged sweep.
	// RunCtx populates it when MergeStates is set; drivers fanning spec copies
	// across pools install one MergeContext so the analysis is shared. Never
	// serialized.
	Merge *MergeContext `json:"-"`
}

// Finding is a terminal state matching the predicate, with provenance. The
// summary fields are captured when the finding is recorded, so a finding
// stays self-describing after its State is discarded (Spec.DiscardStates) or
// when it is reloaded from a campaign checkpoint journal.
type Finding struct {
	Injection faults.Injection
	// Outcome classifies the terminal state.
	Outcome symexec.Outcome
	// Output is the rendered output stream at termination.
	Output string
	// Sym describes the symbolic state (constraint store) at termination.
	Sym string
	// Trace is the decision trace of the terminal state, captured when the
	// finding is recorded so it survives JSON transport (checkpoint journals,
	// the distributed wire protocol) where the live State cannot travel. The
	// paper calls this trace what makes findings actionable (Section 5.4).
	Trace []trace.Event `json:",omitempty"`
	// State is the full terminal state with its decision trace. Nil when the
	// spec set DiscardStates or the finding came from a checkpoint journal.
	State *symexec.State `json:"-"`
}

// newFinding captures a finding from a live terminal state.
func newFinding(inj faults.Injection, st *symexec.State, discard bool) Finding {
	f := Finding{
		Injection: inj,
		Outcome:   st.Outcome(),
		Output:    st.OutputString(),
		Sym:       st.Sym.Describe(),
		Trace:     st.Trace.Events(),
	}
	if !discard {
		f.State = st
	}
	return f
}

// TraceEvents returns the finding's decision trace: the serialized capture
// when present, falling back to the live state's trace for findings recorded
// before traces were captured (old checkpoint journals).
func (f Finding) TraceEvents() []trace.Event {
	if len(f.Trace) > 0 {
		return f.Trace
	}
	if f.State != nil {
		return f.State.Trace.Events()
	}
	return nil
}

// Describe renders the finding for reports.
func (f Finding) Describe() string {
	return fmt.Sprintf("%s => outcome %s, output %q, symbolic state: %s",
		f.Injection, f.Outcome, f.Output, f.Sym)
}

// InjectionReport records the exploration of one injection.
type InjectionReport struct {
	Injection faults.Injection
	// Activated is false when the fault-free execution never reached the
	// breakpoint, so the fault was never manifested.
	Activated bool
	// StatesExplored counts states expanded.
	StatesExplored int
	// TerminalStates counts terminal states classified.
	TerminalStates int
	// Outcomes tallies terminal states by outcome.
	Outcomes map[symexec.Outcome]int
	// DetectorHits tallies detected terminal states by the detector that
	// fired — per-detector coverage attribution, so hardened-vs-seed
	// campaigns can say which CHECK earned each detection. Nil until a
	// detection is attributed.
	DetectorHits map[int64]int `json:",omitempty"`
	// Findings holds predicate matches (capped at MaxFindings).
	Findings []Finding
	// BudgetExhausted is true when the state budget expired before the
	// frontier emptied; results are then a sound subset.
	BudgetExhausted bool
	// Truncated is true when a fork fan-out cap dropped successors.
	Truncated bool
	// Interrupted is true when the context was cancelled (or a deadline
	// expired) before the frontier emptied; results are a sound subset.
	Interrupted bool
	// TimedOut refines Interrupted: the wall-clock deadline (per-injection
	// or inherited) expired, as opposed to an explicit cancellation.
	TimedOut bool
	// Panicked is true when exploring this injection panicked; the panic was
	// isolated here instead of killing the campaign. Tallies reflect the
	// states explored before the panic.
	Panicked bool
	// PanicValue carries the recovered panic value when Panicked.
	PanicValue string
	// Error records an infrastructure failure (e.g. a malformed injection
	// spec) when a resilient runner chose to keep going instead of aborting.
	// Empty for clean explorations.
	Error string
	// Summarized is true when the compositional summaries proved this
	// injection benign (Spec.UseSummaries): the err provably reaches no
	// output, detector, or control decision on any continuation. The tallies
	// are those of the site's representative exploration — byte-identical to
	// what exploring this injection would have produced — so summarized and
	// plain reports stay comparable; the elided work shows up only in the
	// live symplfied_summarized_injections_total counter.
	Summarized bool `json:",omitempty"`
	// Merged is true when the merged explorer (Spec.MergeStates) swept this
	// injection. Verdict-bearing fields (Activated, TerminalStates, Outcomes,
	// Findings, Truncated) match the unmerged exploration; StatesExplored and
	// the Exec tallies reflect the physical work actually done, which is the
	// point of merging. The marker is the one legitimate report difference
	// between a merged and an unmerged sweep of a completing search.
	Merged bool `json:",omitempty"`
	// Exec tallies how the exploration spent its budget (forks by kind,
	// solver prunes, dedup hits, frontier/depth high-water marks). The
	// tally is deterministic — derived from the search order, never the
	// wall clock — so journals, resume and the distributed protocol merge
	// it exactly like findings.
	Exec obs.ExecStats
}

// Failed reports whether the injection ended abnormally (panic, deadline,
// cancellation or infrastructure error) rather than completing its sweep.
func (ir InjectionReport) Failed() bool {
	return ir.Panicked || ir.Interrupted || ir.Error != ""
}

// Report aggregates a whole search.
type Report struct {
	Spec         *Spec
	PerInjection []InjectionReport
	Findings     []Finding
	Outcomes     map[symexec.Outcome]int
	// DetectorHits folds the per-injection detector attribution: how many
	// detected terminals each detector accounts for across the sweep.
	DetectorHits  map[int64]int `json:",omitempty"`
	TotalStates   int
	NotActivated  int
	BudgetBlown   int
	AnyTruncation bool
	// Interrupted is true when the search was cancelled or deadlined before
	// sweeping every injection: the report is a sound partial result.
	Interrupted bool
	// TimedOuts counts injections whose wall-clock deadline expired.
	TimedOuts int
	// Panics counts injections that panicked and were isolated.
	Panics int
	// Errors counts injections recorded with an infrastructure error by a
	// resilient runner.
	Errors int
	// SummarizedInjections counts injections classified benign by the
	// compositional summary proof (Spec.UseSummaries) instead of a fresh
	// exploration.
	SummarizedInjections int
	// MergedInjections counts injections swept by the merged explorer
	// (Spec.MergeStates).
	MergedInjections int
	// Exec is the merged per-injection exploration tally (Add folds each
	// InjectionReport.Exec in; counters sum, high-water marks take the max).
	Exec obs.ExecStats
}

// NewReport returns an empty report ready for Add.
func NewReport(spec *Spec) *Report {
	return &Report{
		Spec:         spec,
		PerInjection: make([]InjectionReport, 0, len(spec.Injections)),
		Outcomes:     make(map[symexec.Outcome]int),
	}
}

// Add merges one injection report into the aggregate. Exported so resilient
// runners (internal/campaign) can rebuild a merged report from journaled
// per-injection reports.
func (r *Report) Add(ir InjectionReport) {
	r.PerInjection = append(r.PerInjection, ir)
	r.Findings = append(r.Findings, ir.Findings...)
	r.TotalStates += ir.StatesExplored
	for o, n := range ir.Outcomes {
		r.Outcomes[o] += n
	}
	for id, n := range ir.DetectorHits {
		if r.DetectorHits == nil {
			r.DetectorHits = make(map[int64]int)
		}
		r.DetectorHits[id] += n
	}
	if !ir.Activated && !ir.Failed() {
		r.NotActivated++
	}
	if ir.BudgetExhausted {
		r.BudgetBlown++
	}
	r.AnyTruncation = r.AnyTruncation || ir.Truncated
	if ir.Interrupted {
		r.Interrupted = true
	}
	if ir.TimedOut {
		r.TimedOuts++
	}
	if ir.Panicked {
		r.Panics++
	}
	if ir.Error != "" {
		r.Errors++
	}
	if ir.Summarized {
		r.SummarizedInjections++
	}
	if ir.Merged {
		r.MergedInjections++
	}
	r.Exec.Merge(ir.Exec)
}

// Verdict is the framework's overall answer (paper Section 3.1, Outputs):
// either a proof that the program (with its detectors) is resilient to the
// error class, or the enumeration of the errors that evade detection.
type Verdict int

// Verdicts.
const (
	// VerdictProven: the exhaustive search completed within budget without
	// truncation and found no error satisfying the predicate — the paper's
	// "proof that the program with the embedded detectors is resilient to
	// the error class considered" (for the analyzed input).
	VerdictProven Verdict = iota + 1
	// VerdictRefuted: at least one error in the class satisfies the
	// predicate; the findings enumerate them.
	VerdictRefuted
	// VerdictInconclusive: nothing was found, but exploration was incomplete
	// — a state budget expired, a fork fan-out cap truncated exploration,
	// the search was interrupted or deadlined, or an injection panicked —
	// so absence is not proof.
	VerdictInconclusive
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictProven:
		return "proven resilient"
	case VerdictRefuted:
		return "refuted"
	case VerdictInconclusive:
		return "inconclusive"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Verdict classifies the report. Any incompleteness — blown budgets,
// truncation, interruption, deadlines, isolated panics or recorded errors —
// downgrades an empty result to inconclusive: a partial sweep cannot prove
// resilience.
func (r *Report) Verdict() Verdict {
	if len(r.Findings) > 0 {
		return VerdictRefuted
	}
	if r.BudgetBlown > 0 || r.AnyTruncation || r.Interrupted ||
		r.TimedOuts > 0 || r.Panics > 0 || r.Errors > 0 {
		return VerdictInconclusive
	}
	return VerdictProven
}

// Run executes the search with an un-cancellable context. See RunCtx.
func Run(spec Spec) (*Report, error) {
	return RunCtx(context.Background(), spec)
}

// RunCtx executes the search, fanning the injection sweep across a worker
// pool sized by spec.Parallelism (0: GOMAXPROCS; injections are independent,
// so the sweep is embarrassingly parallel). The merged report is
// deterministic: injection reports and findings appear in injection order
// and the counters merge commutatively, so an uninterrupted parallel run is
// byte-identical to a sequential one. When ctx is cancelled (or its deadline
// expires) mid-sweep, the reports of the injections that were swept are
// returned with Interrupted set rather than discarded.
func RunCtx(ctx context.Context, spec Spec) (*Report, error) {
	if spec.Program == nil {
		return nil, fmt.Errorf("checker: nil program")
	}
	if spec.Predicate.Match == nil {
		return nil, fmt.Errorf("checker: nil predicate")
	}
	// Resolve the summary and merge contexts once so every injection in the
	// sweep — sequential or parallel — shares one analysis, one summary set,
	// and one representative memo per breakpoint.
	spec.EnsureSummaries()
	spec.EnsureMerge()
	if workers := poolSize(spec.Parallelism, len(spec.Injections)); workers > 1 {
		return runParallel(ctx, spec, workers)
	}
	rep := NewReport(&spec)
	for _, inj := range spec.Injections {
		if ctx.Err() != nil {
			rep.Interrupted = true
			break
		}
		ir, err := RunInjectionCtx(ctx, spec, inj)
		if err != nil {
			return nil, fmt.Errorf("checker: %s: %w", inj, err)
		}
		rep.Add(ir)
	}
	return rep, nil
}

// poolSize resolves a Parallelism knob against the amount of independent
// work: 0 means GOMAXPROCS, and a pool never exceeds the work count.
func poolSize(parallelism, work int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > work {
		parallelism = work
	}
	return parallelism
}

// runParallel is the parallel injection sweep behind RunCtx. Workers pull
// injection indexes from a channel and write each report into its index
// slot; the merge then folds the slots in injection order, so worker
// interleaving never shows in the report. Cancellation stops dispatch, and
// the injections never started leave the report marked Interrupted — the
// parallel analogue of the sequential sweep stopping mid-list.
func runParallel(ctx context.Context, spec Spec, workers int) (*Report, error) {
	// Pool-utilization gauges, shared with the cluster harness so one
	// -metrics-addr scrape shows every pool's width and busyness additively.
	reg := obs.Default()
	poolWorkers := reg.Gauge(obs.MWorkers)
	busyWorkers := reg.Gauge(obs.MBusyWorkers)
	poolWorkers.Add(int64(workers))
	defer poolWorkers.Add(-int64(workers))

	var (
		results = make([]InjectionReport, len(spec.Injections))
		errs    = make([]error, len(spec.Injections))
		settled = make([]bool, len(spec.Injections))
		next    = make(chan int)
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				busyWorkers.Add(1)
				results[i], errs[i] = RunInjectionCtx(ctx, spec, spec.Injections[i])
				settled[i] = true
				busyWorkers.Add(-1)
			}
		}()
	}
dispatch:
	for i := range spec.Injections {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	rep := NewReport(&spec)
	for i := range spec.Injections {
		if !settled[i] {
			rep.Interrupted = true
			continue
		}
		if errs[i] != nil {
			// Same contract as the sequential sweep: an infrastructure
			// error (e.g. a malformed injection) aborts the search. The
			// lowest-index error wins, which is what a sequential sweep
			// would have reported.
			return nil, fmt.Errorf("checker: %s: %w", spec.Injections[i], errs[i])
		}
		rep.Add(results[i])
	}
	return rep, nil
}

// RunInjection explores a single injection and returns its report.
func RunInjection(spec Spec, inj faults.Injection) (InjectionReport, error) {
	return RunInjectionCtx(context.Background(), spec, inj)
}

// RunInjectionCtx explores a single injection under ctx, additionally bounded
// by spec.PerInjectionTimeout when set. It never propagates a panic from the
// symbolic executor or the user predicate: a panic is recovered and recorded
// on the report (Panicked/PanicValue) so one poisoned injection cannot kill
// a campaign of thousands.
//
// When spec.UseSummaries is set and the compositional summary proof (see
// SummaryContext) shows the injection's taint reaches nothing — which
// includes every injection into a register liveness proves dead at a site
// the function partition reaches — the site's
// representative report is reused instead of exploring: the exploration is
// elided entirely, and the returned report (marked Summarized) is what the
// exploration would have produced.
func RunInjectionCtx(ctx context.Context, spec Spec, inj faults.Injection) (InjectionReport, error) {
	if sums := spec.EnsureSummaries(); sums.Benign(inj) {
		budget := spec.effectiveBudget()
		if reused, ok := sums.sites.reuse(inj, budget); ok {
			reused.Summarized = true
			liveSummarized.Inc()
			liveInjections.Inc() // the injection is classified, just not explored
			if checkSummaries {
				checkSummarizedReuse(ctx, spec, inj, reused)
			}
			return reused, nil
		}
		// First benign injection at this site: explore it for real and
		// memoize the result as the site's representative.
		ir, err := runInjectionChecked(ctx, spec, inj)
		if err == nil {
			sums.sites.store(inj, ir, budget)
			ir.Summarized = true
		}
		return ir, err
	}
	return runInjectionChecked(ctx, spec, inj)
}

// runInjectionChecked explores the injection and, when the merging
// cross-check mode is armed (SYMPLFIED_CHECK_MERGING) and the exploration was
// merged, re-explores it unmerged and panics on any verdict drift. The check
// runs outside runInjectionReal's recover boundary on purpose: a failed
// equivalence obligation must abort the process, not become one more
// isolated injection panic in the report.
func runInjectionChecked(ctx context.Context, spec Spec, inj faults.Injection) (InjectionReport, error) {
	ir, err := runInjectionReal(ctx, spec, inj, true)
	if err == nil && checkMerging && ir.Merged {
		checkMergedExploration(ctx, spec, inj, ir)
	}
	return ir, err
}

// runInjectionReal performs the actual exploration behind RunInjectionCtx.
// publish gates the per-injection live-registry flush (injection counters
// and ExecStats): the SYMPLFIED_CHECK_SUMMARIES shadow exploration runs with
// publish=false so an audited summarized run keeps its injection accounting
// (the per-state counters still tick in the shadow — cross-checking is a
// debug mode, not a metrics-neutral one).
func runInjectionReal(ctx context.Context, spec Spec, inj faults.Injection, publish bool) (ir InjectionReport, err error) {
	ir = InjectionReport{
		Injection: inj,
		Outcomes:  make(map[symexec.Outcome]int),
	}
	if spec.PerInjectionTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.PerInjectionTimeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			// Keep the tallies gathered before the panic: they are a sound
			// subset, same as a budget- or deadline-bounded exploration.
			ir.Panicked = true
			ir.PanicValue = fmt.Sprint(rec)
			err = nil
		}
		// Flush this injection's deterministic tally into the live registry
		// so mid-campaign scrapes reflect completed injections.
		if publish {
			liveInjections.Inc()
			if ir.TimedOut {
				liveInjTimeouts.Inc()
			}
			if ir.Panicked {
				liveInjPanics.Inc()
			}
			ir.Exec.Publish(obs.Default())
			// The intern table is process-global, so its counters are gauges
			// refreshed to the current totals rather than per-report deltas.
			hits, misses := symbolic.InternStats()
			liveInternHits.Set(hits)
			liveInternMisses.Set(misses)
		}
	}()
	if mc := spec.EnsureMerge(); mc != nil {
		err = exploreInjectionMerged(ctx, spec, inj, &ir, mc)
	} else {
		err = exploreInjection(ctx, spec, inj, &ir)
	}
	return ir, err
}

// exploreInjection runs the concrete prefix and the breadth-first symbolic
// exploration, mutating ir as it goes so partial tallies survive a panic or
// an interruption.
func exploreInjection(ctx context.Context, spec Spec, inj faults.Injection, ir *InjectionReport) error {
	budget := spec.effectiveBudget()

	// Concrete prefix up to the breakpoint.
	m := machine.New(spec.Program, spec.Input, machine.Options{
		Watchdog:  spec.Exec.Watchdog,
		Detectors: spec.Detectors,
	})
	if !m.RunUntil(inj.PC, inj.Occurrence) {
		return nil // fault never activated
	}
	ir.Activated = true

	st := symexec.FromMachine(m, spec.Detectors, spec.Exec)
	st.Stats = &ir.Exec // shared by every forked state in this search

	initial, err := inj.Apply(st)
	if err != nil {
		return err
	}

	// Breadth-first exhaustive exploration. Deterministic steps run in
	// place (StepInPlace) so only genuine forks pay for a state clone; each
	// executed step counts one state against the budget. A state with no
	// err left (ErrFree) runs on the concrete machine instead, in chunks of
	// at most tailChunk states with a ctx poll before each: RunConcrete
	// leaves it, and the state count, exactly as StepInPlace would.
	//
	// The frontier is a head-indexed queue: popping advances head and nils
	// the slot so explored states are released to the GC immediately instead
	// of being pinned by the backing array for the whole search, and the
	// live window is compacted to the front once the dead prefix dominates.
	frontier := initial
	head := 0
	// Visited states are keyed by a 64-bit incremental hash of the canonical
	// encoding rather than the rendered Key() string — no sorting, no string
	// building in the hot loop. The Keyer audits hashes against the full
	// encodings when symexec.CheckKeyCollisions is set.
	var visited map[uint64]struct{}
	var keyer *symexec.Keyer
	if spec.Dedup {
		visited = make(map[uint64]struct{}, 1024)
		keyer = symexec.NewKeyer()
	}
	// The live frontier gauge carries this search's current width; sweeps
	// running in parallel each add their contribution, and the deferred
	// drain removes it however the exploration exits (including panics).
	var published int64
	defer func() { liveFrontier.Add(-published) }()
	states := stateTally{ir: ir}
	defer states.flush()
	interrupted := func() bool {
		states.flush()
		cerr := ctx.Err()
		if cerr != nil {
			ir.Interrupted = true
			ir.TimedOut = errors.Is(cerr, context.DeadlineExceeded)
		}
		return cerr != nil
	}
	syncFrontier := func() {
		width := int64(len(frontier) - head)
		ir.Exec.ObserveFrontier(len(frontier) - head)
		liveFrontier.Add(width - published)
		published = width
	}
	syncFrontier()
	for head < len(frontier) {
		cur := frontier[head]
		frontier[head] = nil
		head++
		if head >= 1024 && head*2 >= len(frontier) {
			n := copy(frontier, frontier[head:])
			frontier = frontier[:n]
			head = 0
		}
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
				return nil
			}
			handOff := cur.Running() && cur.ErrFree()
			if (handOff || ir.StatesExplored&ctxCheckMask == 0) && interrupted() {
				return nil
			}
			if handOff {
				// FromMachine copied what it needed, so the prefix's
				// machine is free to run the tails.
				if n, skipped := cur.RunConcrete(m, min(budget-ir.StatesExplored, tailChunk)); n > 0 {
					ir.StatesExplored += n
					ir.Truncated = ir.Truncated || cur.Truncated
					liveTailStates.Add(int64(n))
					if skipped > 0 {
						liveTailSkipped.Add(int64(skipped))
					}
					continue
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
				if spec.Predicate.Match(cur) {
					if spec.MaxFindings == 0 || len(ir.Findings) < spec.MaxFindings {
						ir.Findings = append(ir.Findings, newFinding(inj, cur, spec.DiscardStates))
						liveFindings.Inc()
					}
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
		syncFrontier()
	}
	return nil
}
