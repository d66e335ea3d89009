package main

import (
	"context"
	"fmt"
	"strconv"

	"symplfied/internal/apps/tcas"
	"symplfied/internal/isa"
	"symplfied/internal/simplescalar"
)

// concreteSession is concrete-campaign: one paper §6.3 (Table 2) concrete
// campaign per seeded tcas input and campaign seed — the three extreme and
// seeded random values into every source and destination register, capped
// at a fixed trial count — run one after another.
type concreteSession struct {
	cfg      config
	sh       shape
	prog     *isa.Program
	trials   int
	random   int // random values per site, enough for the cap
	watchdog int
	inputs   []tcas.Inputs
	seeds    []int64
}

func setupConcrete(_ context.Context, cfg config) (session, error) {
	s := &concreteSession{
		cfg:      cfg,
		sh:       shape{ops: 300, prefix: tcasCycle, cycle: tcasCycle},
		prog:     tcas.Program(),
		trials:   5_000,
		watchdog: 50_000,
	}
	if cfg.tiny {
		s.sh = shape{ops: 4, prefix: 4, cycle: tcasCycle}
		s.trials = 200
	}
	points := len(simplescalar.EnumeratePoints(s.prog))
	s.random = max((s.trials+points-1)/points-3, 3)
	for i := 0; i < s.sh.ops; i++ {
		in := tcasInput(cfg.seed, "concrete", i)
		if err := checkTcasGolden(s.prog, in); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		s.inputs = append(s.inputs, in)
		s.seeds = append(s.seeds, stream(cfg.seed, "concrete-seed", i).Int63())
	}
	return s, nil
}

func (s *concreteSession) warm(ctx context.Context) error {
	out, err := s.campaign(ctx, tcasInput(s.cfg.seed, "warm-concrete", 0), 0, nil)
	if err == nil && out.Failures > 0 {
		err = fmt.Errorf("warm-up campaign failed")
	}
	return err
}

func (s *concreteSession) run(ctx context.Context, lim limits, tr *tracer) (phase, error) {
	ph, err := closedLoop(ctx, lim, s.sh, tr, func(ctx context.Context, i int) (opOut, error) {
		return s.campaign(ctx, s.inputs[i], s.seeds[i], tr)
	})
	ph.extra = metrics{}
	ph.extra.set("trials_per_s", perSecond(ph.total.Injections, ph.wall), "1/s", ph.ops)
	return ph, err
}

// campaign runs one campaign. Its findings are the trials that halted
// printing something other than the fault-free advisory: the concrete
// counterpart of the symbolic sweeps' predicate.
func (s *concreteSession) campaign(ctx context.Context, in tcas.Inputs, seed int64, tr *tracer) (opOut, error) {
	cctx, sp := tr.start(ctx, "simplescalar.RunResilient")
	rep, err := simplescalar.RunResilient(cctx, simplescalar.Config{
		Program:       s.prog,
		Input:         in.Slice(),
		Watchdog:      s.watchdog,
		Classify:      simplescalar.SingleValueClassifier(0, 1, 2),
		Seed:          seed,
		RandomPerReg:  s.random,
		MaxInjections: s.trials,
	}, simplescalar.Resilience{})
	sp.end()
	if err != nil {
		return opOut{}, err
	}
	var out opOut
	golden := strconv.FormatInt(tcas.Oracle(in), 10)
	sum := 0
	for label, n := range rep.Counts {
		sum += n
		out.outcome(label, int64(n))
		switch label {
		case golden, simplescalar.LabelCrash, simplescalar.LabelHang, simplescalar.LabelPanic:
		default:
			out.Findings += int64(n)
		}
	}
	out.Injections = int64(rep.Total)
	out.Attempted = int64(s.trials)
	out.Decided = int64(rep.Total)
	// Exact totals: every trial ran, was tallied once, and none panicked.
	if rep.Interrupted || rep.Total != s.trials || sum != rep.Total || rep.Counts[simplescalar.LabelPanic] > 0 {
		out.Failures++
	}
	return out, nil
}

func (s *concreteSession) check(_ context.Context, ph phase) []string {
	if want := int64(ph.ops) * int64(s.trials); ph.total.Injections != want {
		return []string{fmt.Sprintf("%d campaigns ran %d trials, want %d", ph.ops, ph.total.Injections, want)}
	}
	return nil
}

func (s *concreteSession) layers(ph phase, sp *spanIndex, m metrics) {
	m.set("simplescalar.trial_us", sp.totalMS("simplescalar.RunResilient")*1000/float64(max(ph.total.Injections, 1)), "us", int(ph.total.Injections))
}

func (s *concreteSession) probeInput() (*isa.Program, []int64) { return s.prog, s.inputs[0].Slice() }

func (s *concreteSession) close() error { return nil }
