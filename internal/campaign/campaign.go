// Package campaign is the resilient runner for large fault-injection
// searches. The paper ran its exhaustive studies as hundreds of independent
// cluster tasks with a 30-minute wall-clock allotment each, precisely
// because long symbolic searches die, hang and exhaust memory in practice
// (Section 6.1); this package brings the same operational shape to a single
// process:
//
//   - every completed injection report is journaled to an append-only
//     JSON-lines checkpoint file the moment it finishes;
//   - a killed campaign (SIGINT, deadline, crash) resumes by reloading the
//     journal and skipping already-explored injections, guarded by a
//     fingerprint of the campaign spec so unrelated journals are rejected;
//   - an injection that fails transiently — panics inside the symbolic
//     executor or exceeds its wall-clock deadline — is retried up to a
//     configured number of times with a halved state budget and degraded
//     executor options (symexec.Options.Degraded), so one pathological
//     injection degrades gracefully instead of sinking the campaign;
//   - the merged checker.Report is identical to an uninterrupted sequential
//     run over the same spec (modulo discarded live states), regardless of
//     how many times the campaign was killed and resumed.
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"symplfied/internal/checker"
	"symplfied/internal/faults"
	"symplfied/internal/fingerprint"
	"symplfied/internal/obs"
)

// KindSymbolic is the journal kind written by this runner.
const KindSymbolic = "symbolic"

// Config tunes the resilient runner. The zero value runs the campaign
// sequentially with no checkpointing and no retries — equivalent to
// checker.RunCtx plus panic isolation accounting.
type Config struct {
	// Checkpoint is the journal file path; empty disables checkpointing.
	Checkpoint string
	// Resume loads the journal before running and skips injections it
	// already records. Requires Checkpoint. A missing journal file is not an
	// error (the campaign simply starts fresh).
	Resume bool
	// Retries re-runs an injection that failed transiently (panicked or hit
	// the per-injection deadline) up to this many additional times, halving
	// the state budget and degrading the executor options each attempt.
	Retries int
	// Workers sizes the worker pool; 0 (or the spec's Parallelism, when
	// Workers is unset) follows checker.Spec.Parallelism semantics: 0 means
	// GOMAXPROCS, 1 runs sequentially. Like Parallelism, Workers is
	// operational only — it never enters the campaign fingerprint.
	Workers int
	// OnInjection, if set, is called after each injection settles (resumed
	// or explored) with the number settled so far and the campaign total.
	// Called from worker goroutines under the runner's lock.
	OnInjection func(done, total int)
}

// Stats describes what the runner did, beyond the merged report.
type Stats struct {
	// Total is the campaign size (len of spec.Injections).
	Total int
	// Resumed counts injections skipped because the journal already
	// recorded them.
	Resumed int
	// Executed counts injections explored by this run.
	Executed int
	// Retried counts degraded retry attempts across all injections.
	Retried int
	// Panicked counts injections still marked panicked after retries.
	Panicked int
	// TimedOut counts injections still marked deadline-expired after
	// retries.
	TimedOut int
	// Errored counts injections recorded with an infrastructure error.
	Errored int
	// NotAttempted counts injections never started because the campaign was
	// cancelled first; they are the resume frontier.
	NotAttempted int
	// Interrupted is true when the campaign was cancelled or deadlined
	// before settling every injection.
	Interrupted bool
}

// Fingerprint hashes the search identity of a spec: the program text, the
// detector table, the input, the predicate name, the executor options, the
// budgets and the full injection list. Two specs with equal fingerprints
// explore the same search space, so their journals are interchangeable.
// Operational knobs that do not change what is explored per injection
// (DiscardStates, PerInjectionTimeout) are deliberately excluded.
func Fingerprint(spec checker.Spec) string {
	h := fingerprint.New()
	h.Program(spec.Program)
	h.Detectors(spec.Detectors)
	h.Input(spec.Input)
	h.Line("predicate %s", spec.Predicate.Name)
	h.Line("exec %+v", spec.Exec)
	h.Line("budget %d findings %d dedup %v", spec.StateBudget, spec.MaxFindings, spec.Dedup)
	for _, inj := range spec.Injections {
		h.Line("inj %s", inj)
	}
	return h.Sum()
}

// Key returns the journal key of an injection: its canonical rendering,
// which is unique within an enumerated fault class.
func Key(inj faults.Injection) string { return inj.String() }

// Run executes the campaign described by spec under ctx with the resilience
// features of cfg, returning the merged report (per-injection reports in
// spec order, regardless of worker interleaving or resume history) and the
// runner stats. Cancellation returns the partial merged report with
// Interrupted set, never an error: whatever was swept is worth pooling.
func Run(ctx context.Context, spec checker.Spec, cfg Config) (*checker.Report, Stats, error) {
	if spec.Program == nil {
		return nil, Stats{}, fmt.Errorf("campaign: nil program")
	}
	if spec.Predicate.Match == nil {
		return nil, Stats{}, fmt.Errorf("campaign: nil predicate")
	}
	if cfg.Resume && cfg.Checkpoint == "" {
		return nil, Stats{}, fmt.Errorf("campaign: Resume requires a Checkpoint path")
	}

	stats := Stats{Total: len(spec.Injections)}
	fingerprint := Fingerprint(spec)
	// One summary context for the whole campaign, shared by every worker's
	// spec copy (it is operational, like Parallelism: absent from the
	// fingerprint, and a resumed summarized campaign merges with a plain
	// journal because the reports are identical modulo the Summarized
	// markers). The summary cache on the spec survives checkpoint/resume:
	// the content-addressed keys make stale entries unreachable, never
	// wrong.
	spec.EnsureSummaries()

	journaled := map[string]json.RawMessage{}
	if cfg.Resume {
		var err error
		journaled, err = LoadJournal(cfg.Checkpoint, KindSymbolic, fingerprint)
		if err != nil {
			return nil, Stats{}, err
		}
	}

	var journal *Journal
	if cfg.Checkpoint != "" {
		var err error
		journal, err = OpenJournal(cfg.Checkpoint, KindSymbolic, fingerprint)
		if err != nil {
			return nil, Stats{}, err
		}
	}

	results := make([]checker.InjectionReport, len(spec.Injections))
	settled := make([]bool, len(spec.Injections))

	var (
		mu       sync.Mutex // guards stats, done counter, journalErr
		done     int
		jErr     error
		wg       sync.WaitGroup
		indexes  = make(chan int)
		workers  = cfg.Workers
		injTotal = len(spec.Injections)
	)
	if workers <= 0 {
		// Inherit the spec's Parallelism knob (0: GOMAXPROCS), so a
		// context-first caller sets one field and every engine respects it.
		workers = spec.Parallelism
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > injTotal {
		workers = injTotal
	}

	// Decomposition-progress gauges: the campaign's unit of work is one
	// injection. Deltas, not Set, so a concurrently-running cluster study on
	// the same process stays additive; the defer retires this campaign's
	// contribution when it returns.
	var (
		reg        = obs.Default()
		tasksTotal = reg.Gauge(obs.MTasksTotal)
		tasksDone  = reg.Gauge(obs.MTasksDone)
	)
	tasksTotal.Add(int64(injTotal))
	defer func() {
		mu.Lock()
		retire := int64(done)
		mu.Unlock()
		tasksTotal.Add(-int64(injTotal))
		tasksDone.Add(-retire)
	}()

	settle := func(i int, ir checker.InjectionReport, resumed bool, retried int) {
		results[i] = ir
		settled[i] = true
		mu.Lock()
		defer mu.Unlock()
		done++
		tasksDone.Add(1)
		stats.Retried += retried
		if resumed {
			stats.Resumed++
		} else {
			stats.Executed++
		}
		if ir.Panicked {
			stats.Panicked++
		}
		if ir.TimedOut {
			stats.TimedOut++
		}
		if ir.Error != "" {
			stats.Errored++
		}
		if cfg.OnInjection != nil {
			cfg.OnInjection(done, injTotal)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				inj := spec.Injections[i]
				key := Key(inj)

				if raw, ok := journaled[key]; ok {
					var ir checker.InjectionReport
					if err := json.Unmarshal(raw, &ir); err == nil {
						settle(i, ir, true, 0)
						continue
					}
					// An undecodable entry is re-explored rather than trusted.
				}

				ir, retried := runWithRetries(ctx, spec, inj, cfg.Retries)
				// Journal everything that settled on its own terms. An
				// injection cut short by campaign cancellation (or by the
				// campaign-wide deadline) is NOT journaled: it must re-run
				// in full on resume. A per-injection deadline with the
				// campaign still live is a settled outcome — the injection
				// consumed its allotment — and is journaled as such.
				complete := ctx.Err() == nil && (!ir.Interrupted || ir.TimedOut)
				if journal != nil && complete {
					if err := journal.Append(key, ir); err != nil {
						mu.Lock()
						if jErr == nil {
							jErr = err
						}
						mu.Unlock()
					}
				}
				if complete {
					settle(i, ir, false, retried)
				} else {
					// Keep the partial tallies for this run's merged report,
					// but leave the injection unsettled in stats terms: it
					// re-runs on resume.
					results[i] = ir
					settled[i] = true
					mu.Lock()
					stats.Executed++
					stats.Retried += retried
					mu.Unlock()
				}
			}
		}()
	}

dispatch:
	for i := range spec.Injections {
		select {
		case indexes <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(indexes)
	wg.Wait()

	rep := checker.NewReport(&spec)
	for i := range spec.Injections {
		if settled[i] {
			rep.Add(results[i])
		} else {
			stats.NotAttempted++
		}
	}
	if stats.NotAttempted > 0 || ctx.Err() != nil {
		rep.Interrupted = true
	}
	stats.Interrupted = rep.Interrupted

	if journal != nil {
		if err := journal.Close(); err != nil && jErr == nil {
			jErr = err
		}
	}
	if jErr != nil {
		// The exploration results are intact; only checkpoint durability is
		// compromised. Surface it: a campaign relying on resume must know.
		return rep, stats, fmt.Errorf("campaign: checkpoint journal: %w", jErr)
	}
	return rep, stats, nil
}

// runWithRetries explores one injection, retrying transient failures (panic
// or per-injection deadline) with a halved budget and degraded executor
// options per attempt. Infrastructure errors are folded into the report
// (Error field) so the campaign keeps sweeping. Returns the settled report
// and the number of retry attempts consumed.
func runWithRetries(ctx context.Context, spec checker.Spec, inj faults.Injection, retries int) (checker.InjectionReport, int) {
	ir := runOnce(ctx, spec, inj)
	retried := 0
	for attempt := 1; attempt <= retries; attempt++ {
		if ctx.Err() != nil || !transient(ir) {
			break
		}
		d := spec
		budget := spec.StateBudget
		if budget <= 0 {
			budget = checker.DefaultStateBudget
		}
		d.StateBudget = max(budget>>attempt, 1)
		d.Exec = spec.Exec.Degraded(attempt)
		ir = runOnce(ctx, d, inj)
		retried++
	}
	return ir, retried
}

// runOnce wraps checker.RunInjectionCtx, converting an infrastructure error
// into a report-level Error so the campaign survives malformed injections.
func runOnce(ctx context.Context, spec checker.Spec, inj faults.Injection) checker.InjectionReport {
	ir, err := checker.RunInjectionCtx(ctx, spec, inj)
	if err != nil {
		ir.Injection = inj
		ir.Error = err.Error()
	}
	return ir
}

// transient reports whether the injection failed in a way a degraded retry
// can plausibly fix: a panic or an expired per-injection deadline. A clean
// sweep, a blown state budget and an infrastructure error are all final.
func transient(ir checker.InjectionReport) bool {
	return ir.Panicked || (ir.TimedOut && ir.Error == "")
}
