package crossval

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"symplfied/internal/campaign"
	"symplfied/internal/obs"
	"symplfied/internal/pool"
	"symplfied/internal/simplescalar"
)

// Live campaign counters on the default registry, scraped by -metrics-addr
// and the progress reporter.
var (
	liveTrials  = obs.Default().Counter(obs.MXvalTrials)
	liveKills   = obs.Default().Counter(obs.MXvalKills)
	liveRetries = obs.Default().Counter(obs.MXvalRetries)
	livePoints  = obs.Default().Counter(obs.MXvalPoints)

	liveMismatch = map[Class]*obs.Counter{
		SymbolicMiss: obs.Default().Counter(obs.MXvalMismatches, obs.L("class", SymbolicMiss.String())),
		ConcreteMiss: obs.Default().Counter(obs.MXvalMismatches, obs.L("class", ConcreteMiss.String())),
		ClassDrift:   obs.Default().Counter(obs.MXvalMismatches, obs.L("class", ClassDrift.String())),
	}
)

// maxConcreteMissExamples caps the expected-mismatch examples carried in a
// merged report; the ByClass tally always counts all of them. The alarms
// (SymbolicMiss, ClassDrift) are never capped.
const maxConcreteMissExamples = 100

// journalKind tags crossval checkpoint journals, so they can never be
// confused with symbolic or concrete campaign journals.
const journalKind = "crossval"

// Config carries the operational knobs of a sweep — none of them affect
// verdicts or report bytes.
type Config struct {
	// Parallelism sizes the shared worker pool (internal/pool) the sweep
	// fans its points through; <= 0 selects GOMAXPROCS.
	Parallelism int
	// Checkpoint journals every settled point to this path; empty disables.
	Checkpoint string
	// Resume skips points the journal already records.
	Resume bool
	// OnPoint, if non-nil, observes progress (settled, total).
	OnPoint func(done, total int)
}

// Report is the deterministic campaign summary: for a given Spec its JSON
// encoding is byte-identical whether the sweep ran sequentially, in
// parallel, or split across a distributed fleet.
type Report struct {
	Program      string
	Fingerprint  string
	Seed         int64
	RandomPerReg int
	Watchdog     int
	StateBudget  int
	// Points counts cross-validated sites; NotActivated the subset whose
	// fault-free run never reaches the site.
	Points       int
	NotActivated int
	// Skipped counts points abandoned to infrastructure failures.
	Skipped int `json:",omitempty"`
	// Trials counts concrete injections executed; Agreements the trials the
	// symbolic terminal set covers.
	Trials     int
	Agreements int
	// ByClass tallies every mismatch by class name.
	ByClass map[string]int
	// InconclusivePoints counts points whose symbolic exploration was
	// incomplete (their mismatches cannot convict).
	InconclusivePoints int
	// Mismatches carries the repros: every SymbolicMiss and ClassDrift, and
	// up to maxConcreteMissExamples ConcreteMiss examples
	// (ConcreteMissesElided counts the rest).
	Mismatches           []Mismatch `json:",omitempty"`
	ConcreteMissesElided int        `json:",omitempty"`
	SymStates            int
	TimeoutKills         int  `json:",omitempty"`
	Retries              int  `json:",omitempty"`
	Interrupted          bool `json:",omitempty"`
	Resumed              int  `json:",omitempty"`
}

// Sound reports the harness verdict: no conclusive SymbolicMiss. Inconclusive
// misses (incomplete symbolic exploration) do not refute soundness.
func (r *Report) Sound() bool {
	for _, m := range r.Mismatches {
		if m.Class == SymbolicMiss && !m.Inconclusive {
			return false
		}
	}
	return true
}

// Summary renders the one-line verdict.
func (r *Report) Summary() string {
	verdict := "SOUND"
	if !r.Sound() {
		verdict = "UNSOUND"
	}
	return fmt.Sprintf("crossval %s: %d points, %d trials, %d agreements, mismatches %v (inconclusive points %d)",
		verdict, r.Points, r.Trials, r.Agreements, r.ByClass, r.InconclusivePoints)
}

// pointKey is the journal key of a point.
func pointKey(pt simplescalar.Point) string {
	return fmt.Sprintf("@%d %s dst=%v", pt.PC, pt.Reg, pt.Dst)
}

// RunPointCtx cross-validates a single injection point: one memoized
// symbolic exploration, then one concrete trial per PointValues entry with
// panic isolation, kill-on-deadline and bounded retries, then the diff. The
// trials share one fault-free prefix (simplescalar.PointTrials).
func RunPointCtx(ctx context.Context, spec Spec, pt simplescalar.Point, memo *symMemo) PointReport {
	if memo == nil {
		memo = newSymMemo()
	}
	sum, err := memo.explore(ctx, spec, pt)
	if ctx.Err() != nil {
		return PointReport{Point: pt, Interrupted: true}
	}
	if err != nil {
		return PointReport{Point: pt, Skipped: err.Error()}
	}
	ccfg := simplescalar.Config{
		Program:   spec.Program,
		Input:     spec.Input,
		Detectors: spec.Detectors,
		Watchdog:  spec.watchdog(),
	}
	values := simplescalar.PointValues(spec.Seed, pt, spec.RandomPerReg)
	pointTrials := simplescalar.NewPointTrials(ccfg, pt)
	trials := make([]trialRun, 0, len(values))
	for i, v := range values {
		var tr simplescalar.Trial
		retries := 0
		for attempt := 0; ; attempt++ {
			tctx := ctx
			cancel := context.CancelFunc(func() {})
			if spec.PerTrialTimeout > 0 {
				tctx, cancel = context.WithTimeout(ctx, spec.PerTrialTimeout)
			}
			tr = pointTrials.Trial(tctx, v)
			cancel()
			liveTrials.Inc()
			// The parent context ending aborts the point, whether the trial
			// saw it as an interruption or as a deadline kill.
			if ctx.Err() != nil {
				return PointReport{Point: pt, Interrupted: true}
			}
			if tr.Killed {
				liveKills.Inc()
			}
			if tr.Panicked && attempt < spec.Retries {
				retries++
				liveRetries.Inc()
				continue
			}
			break
		}
		trials = append(trials, trialRun{Value: v, Index: i, Trial: tr, Retries: retries})
	}
	pr := diffPoint(spec, pt, sum, trials)
	livePoints.Inc()
	for _, m := range pr.Mismatches {
		if c := liveMismatch[m.Class]; c != nil {
			c.Inc()
		}
	}
	return pr
}

// RunPointsCtx cross-validates exactly the given points — a distributed
// task — on the shared worker pool (internal/pool) at parallelism workers.
// Reports come back in input order; interrupted is true when cancellation
// abandoned the task before every point settled. A point is interrupted only
// by a cancelled ctx, so no point starts once one has been.
func RunPointsCtx(ctx context.Context, spec Spec, pts []simplescalar.Point, parallelism int) (reports []PointReport, interrupted bool) {
	results := make([]PointReport, len(pts))
	memo := newSymMemo()
	ran := pool.Run(ctx, parallelism, len(pts), func(i int) bool {
		results[i] = RunPointCtx(ctx, spec, pts[i], memo)
		return false
	})
	for _, pr := range results[:ran] {
		if !pr.Interrupted {
			reports = append(reports, pr)
		}
	}
	return reports, ctx.Err() != nil
}

// Run executes the whole campaign with default operational settings.
func Run(spec Spec) (*Report, error) {
	return RunCtx(context.Background(), spec, Config{})
}

// RunCtx executes the whole cross-validation campaign under ctx with
// checkpoint/resume support, fanning the points the journal does not hold
// through the shared worker pool (internal/pool) at cfg.Parallelism workers.
// Points merge in canonical order, so the report is the same at any width.
// Cancellation stops dispatch and returns the partial report with
// Interrupted set.
func RunCtx(ctx context.Context, spec Spec, cfg Config) (*Report, error) {
	if spec.Program == nil {
		return nil, fmt.Errorf("crossval: nil program")
	}
	pts := spec.Points()
	fp := Fingerprint(spec)

	journaled := map[string]json.RawMessage{}
	if cfg.Resume {
		if cfg.Checkpoint == "" {
			return nil, fmt.Errorf("crossval: Resume requires a Checkpoint path")
		}
		var err error
		journaled, err = campaign.LoadJournal(cfg.Checkpoint, journalKind, fp)
		if err != nil {
			return nil, err
		}
	}
	var journal *campaign.Journal
	if cfg.Checkpoint != "" {
		var err error
		journal, err = campaign.OpenJournal(cfg.Checkpoint, journalKind, fp)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	results := make([]*PointReport, len(pts))
	resumed := 0
	var todo []int
	for i, pt := range pts {
		if raw, ok := journaled[pointKey(pt)]; ok {
			var pr PointReport
			if err := json.Unmarshal(raw, &pr); err == nil {
				results[i] = &pr
				resumed++
				continue
			}
		}
		todo = append(todo, i)
	}

	var done atomic.Int64
	done.Store(int64(resumed))
	var journalMu sync.Mutex
	var journalErr error
	memo := newSymMemo()
	pool.Run(ctx, cfg.Parallelism, len(todo), func(ti int) bool {
		i := todo[ti]
		pr := RunPointCtx(ctx, spec, pts[i], memo)
		if pr.Interrupted {
			return false // only a cancelled ctx interrupts a point
		}
		results[i] = &pr
		if journal != nil {
			if err := journal.Append(pointKey(pts[i]), pr); err != nil {
				journalMu.Lock()
				if journalErr == nil {
					journalErr = err
				}
				journalMu.Unlock()
			}
		}
		if cfg.OnPoint != nil {
			cfg.OnPoint(int(done.Add(1)), len(pts))
		}
		return false
	})

	var settled []PointReport
	for _, pr := range results {
		if pr != nil {
			settled = append(settled, *pr)
		}
	}
	rep := Merge(spec, settled)
	rep.Interrupted = ctx.Err() != nil
	rep.Resumed = resumed
	if journalErr != nil {
		return rep, fmt.Errorf("crossval: checkpoint write failed: %w", journalErr)
	}
	return rep, nil
}

// Merge folds point reports into the campaign report. It is pure and
// deterministic: reports are first sorted into the canonical point order, so
// every partitioning of the sweep — sequential, parallel, or a distributed
// fleet — merges to byte-identical JSON.
func Merge(spec Spec, prs []PointReport) *Report {
	sorted := make([]PointReport, len(prs))
	copy(sorted, prs)
	sort.SliceStable(sorted, func(i, j int) bool { return pointLess(sorted[i].Point, sorted[j].Point) })

	rep := &Report{
		Program:      spec.Program.Name,
		Fingerprint:  Fingerprint(spec),
		Seed:         spec.Seed,
		RandomPerReg: spec.randomPer(),
		Watchdog:     spec.watchdog(),
		StateBudget:  spec.budget(),
		ByClass:      make(map[string]int),
	}
	for _, pr := range sorted {
		rep.Points++
		if pr.Skipped != "" {
			rep.Skipped++
			continue
		}
		if !pr.Activated {
			rep.NotActivated++
		}
		if !pr.Sym.Complete {
			rep.InconclusivePoints++
		}
		rep.SymStates += pr.Sym.States
		rep.TimeoutKills += pr.Killed
		rep.Retries += pr.Retries + pr.Sym.Retries
		for _, tr := range pr.Trials {
			rep.Trials++
			if tr.Covered {
				rep.Agreements++
			}
		}
		for _, m := range pr.Mismatches {
			rep.ByClass[m.Class.String()]++
			if m.Class == ConcreteMiss {
				if rep.ByClass[ConcreteMiss.String()] > maxConcreteMissExamples {
					rep.ConcreteMissesElided++
					continue
				}
			}
			rep.Mismatches = append(rep.Mismatches, m)
		}
	}
	return rep
}
