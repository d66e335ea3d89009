package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"time"

	"symplfied/internal/apps/tcas"
	"symplfied/internal/checker"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/summary"
	"symplfied/internal/symbolic"
	"symplfied/internal/symexec"
)

// tcasSession is tcas-plain or tcas-elided: one paper §6.1 sweep per seeded
// input over the activated register injections, predicate "halts printing
// an advisory other than the oracle's", with a completing state budget and
// one injection at a time (checker.RunCtx's loop at Parallelism 1).
type tcasSession struct {
	cfg    config
	elided bool
	sh     shape
	prog   *isa.Program
	injs   []faults.Injection
	exec   symexec.Options
	budget int
	inputs []tcas.Inputs

	// elided only: the warm summary cache every input's summary build
	// reads, and the merge analysis every sweep shares.
	cache      *summary.Cache
	merge      *checker.MergeContext
	mergeSetup time.Duration

	// kept holds the first sh.prefix inputs' findings and tallies for
	// tcas-elided's equivalence check.
	kept []sweepRecord
	// layer tallies accumulated over the timed phase
	execStats                  obs.ExecStats
	summarized                 int64
	buildMS                    []float64
	buildHits, buildFunctions  int
	internHits0, internMisses0 int64
}

// sweepRecord is what the elided/plain equivalence check compares.
type sweepRecord struct {
	findings  []string
	outcomes  map[string]int64
	terminals int64
}

func setupTcas(_ context.Context, cfg config, elided bool) (session, error) {
	s := &tcasSession{
		cfg:    cfg,
		elided: elided,
		sh:     shape{ops: 640, prefix: 16, cycle: tcasCycle},
		prog:   tcas.Program(),
		exec:   symexec.DefaultOptions(),
		budget: 150_000,
	}
	if cfg.tiny {
		s.sh = shape{ops: 8, prefix: 4, cycle: tcasCycle}
	}
	s.exec.Watchdog = 4_000
	s.injs = faults.RegisterInjectionsUsed(s.prog)
	s.inputs = make([]tcas.Inputs, s.sh.ops)
	for i := range s.inputs {
		in := tcasInput(cfg.seed, "tcas", i)
		if err := checkTcasGolden(s.prog, in); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		s.inputs[i] = in
	}
	if elided {
		s.cache = summary.NewCache(0, nil)
		summary.Build(s.prog, nil, s.cache)
		t0 := time.Now()
		s.merge = checker.NewMergeContext(s.prog, nil)
		s.mergeSetup = time.Since(t0)
	}
	return s, nil
}

// checkTcasGolden runs in fault-free on the concrete machine and requires
// tcas.Oracle's advisory.
func checkTcasGolden(prog *isa.Program, in tcas.Inputs) error {
	res := machine.New(prog, in.Slice(), machine.Options{}).Run()
	if res.Status != machine.StatusHalted {
		return fmt.Errorf("golden run %v (%v)", res.Status, res.Exception)
	}
	vals := machine.OutputValues(res.Output)
	want := tcas.Oracle(in)
	if len(vals) != 1 || !vals[0].Equal(isa.Int(want)) {
		return fmt.Errorf("golden output %v, oracle %d", vals, want)
	}
	return nil
}

func (s *tcasSession) warm(ctx context.Context) error {
	for i := 0; i < 2; i++ {
		out, _, err := s.sweep(ctx, tcasInput(s.cfg.seed, "warm-tcas", i), s.elided, nil, false)
		if err != nil {
			return err
		}
		if out.Failures > 0 {
			return fmt.Errorf("warm-up sweep %d failed", i)
		}
	}
	return nil
}

func (s *tcasSession) run(ctx context.Context, lim limits, tr *tracer) (phase, error) {
	s.internHits0, s.internMisses0 = symbolic.InternStats()
	s.kept = s.kept[:0]
	return closedLoop(ctx, lim, s.sh, tr, func(ctx context.Context, i int) (opOut, error) {
		keep := s.elided && len(s.kept) < s.sh.prefix
		out, rec, err := s.sweep(ctx, s.inputs[i], s.elided, tr, keep)
		if keep {
			s.kept = append(s.kept, rec)
		}
		return out, err
	})
}

// sweep explores every injection on one input. With keep it also returns
// the findings (canonically rendered) and outcome tallies.
func (s *tcasSession) sweep(ctx context.Context, in tcas.Inputs, elided bool, tr *tracer, keep bool) (opOut, sweepRecord, error) {
	spec := checker.Spec{
		Program:       s.prog,
		Input:         in.Slice(),
		Exec:          s.exec,
		Predicate:     checker.HaltedOutputOtherThan(tcas.Oracle(in)),
		StateBudget:   s.budget,
		Parallelism:   1,
		DiscardStates: true,
	}
	if elided {
		spec.UseSummaries = true
		spec.SummaryCache = s.cache
		spec.MergeStates = true
		spec.Merge = s.merge
		// The summary set is per input (its representative memo holds
		// input-specific explorations); building it from the warm cache is
		// part of the sweep.
		_, sp := tr.start(ctx, "checker.EnsureSummaries")
		t0 := time.Now()
		sums := spec.EnsureSummaries()
		d := time.Since(t0)
		sp.end()
		if tr != nil {
			st := sums.BuildStats()
			s.buildMS = append(s.buildMS, ms(d))
			s.buildHits += len(st.Hits)
			s.buildFunctions += st.Functions
		}
	}
	var out opOut
	var rec sweepRecord
	if keep {
		rec.outcomes = map[string]int64{}
	}
	for _, inj := range s.injs {
		ictx, sp := tr.start(ctx, "checker.RunInjectionCtx")
		ir, err := checker.RunInjectionCtx(ictx, spec, inj)
		sp.end()
		out.Attempted++
		if err != nil || ir.Failed() {
			out.Failures++
			continue
		}
		out.States += int64(ir.StatesExplored)
		out.Findings += int64(len(ir.Findings))
		for o, n := range ir.Outcomes {
			out.outcome(o.String(), int64(n))
		}
		if !ir.BudgetExhausted {
			out.Decided++
			out.Injections++
		}
		if tr != nil {
			s.execStats.Merge(ir.Exec)
			if ir.Summarized {
				s.summarized++
			}
		}
		if keep {
			rec.findings = append(rec.findings, checker.CanonicalFindings(ir.Findings)...)
			for o, n := range ir.Outcomes {
				rec.outcomes[o.String()] += int64(n)
			}
			rec.terminals += int64(ir.TerminalStates)
		}
	}
	sort.Strings(rec.findings)
	return out, rec, nil
}

// check: tcas-elided's findings and tallies must equal a plain sweep's on
// the prefix inputs (merging and summaries are verdict-preserving); on both
// workloads every injection must complete inside the budget.
func (s *tcasSession) check(ctx context.Context, ph phase) []string {
	var bad []string
	if ph.total.Decided != ph.total.Attempted {
		bad = append(bad, fmt.Sprintf("%d of %d injections did not complete inside the %d-state budget",
			ph.total.Attempted-ph.total.Decided, ph.total.Attempted, s.budget))
	}
	if !s.elided {
		return bad
	}
	for i, got := range s.kept {
		_, want, err := s.sweep(ctx, s.inputs[i], false, nil, true)
		if err != nil {
			return append(bad, fmt.Sprintf("input %d: plain reference sweep: %v", i, err))
		}
		if !reflect.DeepEqual(got, want) {
			bad = append(bad, fmt.Sprintf("input %d: elided sweep differs from plain: %d findings/%d terminals %v vs %d/%d %v",
				i, len(got.findings), got.terminals, got.outcomes, len(want.findings), want.terminals, want.outcomes))
		}
	}
	return bad
}

func (s *tcasSession) layers(ph phase, sp *spanIndex, m metrics) {
	inj := sp.durationsMS("checker.RunInjectionCtx")
	m.set("checker.injection_p50_us", percentile(inj, 50)*1000, "us", len(inj))
	m.set("checker.injection_p99_us", percentile(inj, 99)*1000, "us", len(inj))
	nsPerState := sp.totalMS("checker.RunInjectionCtx") * 1e6 / float64(max(ph.total.States, 1))
	execLayers(s.execStats, ph.total.States, m)
	if !s.elided {
		m.set("checker.ns_per_state", nsPerState, "ns", int(ph.total.States))
		return
	}
	m.set("checker.merge.ns_per_state", nsPerState, "ns", int(ph.total.States))
	m.set("checker.merge.states_merged", float64(s.execStats.StatesMerged), "count", 1)
	m.set("checker.merge.cycles_accelerated", float64(s.execStats.CyclesAccelerated), "count", 1)
	m.set("checker.merge.steps_elided", float64(s.execStats.StepsElided), "count", 1)
	m.set("checker.merge.setup_ms", ms(s.mergeSetup), "ms", 1)
	m.set("checker.summarized_frac", float64(s.summarized)/float64(max(ph.total.Attempted, 1)), "ratio", int(ph.total.Attempted))
	build := sortedCopy(s.buildMS)
	m.set("summary.build_ms", percentile(build, 50), "ms", len(build))
	m.set("summary.cache_hit_frac", float64(s.buildHits)/float64(max(s.buildFunctions, 1)), "ratio", s.buildFunctions)
	hits, misses := symbolic.InternStats()
	dh, dm := hits-s.internHits0, misses-s.internMisses0
	m.set("symbolic.intern_hit_frac", float64(dh)/float64(max(dh+dm, 1)), "ratio", int(dh+dm))
}

// execLayers adds the checker's deterministic exploration tallies.
func execLayers(e obs.ExecStats, states int64, m metrics) {
	m.set("checker.states", float64(states), "count", 1)
	for _, f := range []struct {
		name string
		n    int64
	}{
		{"checker.forks_cmp", e.ForksCmp},
		{"checker.forks_load", e.ForksLoad},
		{"checker.forks_store", e.ForksStore},
		{"checker.forks_control", e.ForksControl},
		{"checker.forks_divisor", e.ForksDivisor},
		{"checker.forks_detector", e.ForksDetector},
		{"checker.solver_prunes", e.SolverPrunes},
		{"checker.dedup_hits", e.DedupHits},
		{"checker.watchdog_truncations", e.WatchdogTruncations},
		{"checker.fanout_truncations", e.FanoutTruncations},
		{"checker.max_frontier", e.MaxFrontier},
	} {
		m.set(f.name, float64(f.n), "count", 1)
	}
	m.set("checker.dedup_hit_frac", float64(e.DedupHits)/float64(max(states+e.DedupHits, 1)), "ratio", int(states+e.DedupHits))
}

func (s *tcasSession) probeInput() (*isa.Program, []int64) { return s.prog, s.inputs[0].Slice() }

func (s *tcasSession) close() error { return nil }
