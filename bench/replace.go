package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"symplfied/internal/apps/replace"
	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/symexec"
)

// replaceSession is replace-study: one paper §6.4 study per seeded replace
// input — every source-register injection, split into tasks run with
// cluster.RunTaskCtx from a two-goroutine pool (cluster.RunCtx's pool with
// two workers), each task under a shared state budget and finding cap. The
// op is a study; its latency samples are its tasks.
type replaceSession struct {
	cfg         config
	sh          shape
	prog        *isa.Program
	tasks       []cluster.Task
	exec        symexec.Options
	budget      int
	maxFindings int
	workers     int
	cases       []replaceCase
	expected    []string // fault-free rendered output per case

	execStats obs.ExecStats // timed phase, traced runs
}

func setupReplace(_ context.Context, cfg config) (session, error) {
	s := &replaceSession{
		cfg:         cfg,
		sh:          shape{ops: 20, prefix: len(replaceTemplates), cycle: len(replaceTemplates)},
		prog:        replace.Program(),
		exec:        symexec.DefaultOptions(),
		budget:      60_000,
		maxFindings: 10,
		workers:     2,
	}
	width := 312
	if cfg.tiny {
		s.sh = shape{ops: 2, prefix: 1, cycle: 1}
		width, s.budget = 24, 2_000
	}
	s.exec.Watchdog = 120_000
	s.tasks = cluster.Split(faults.RegisterInjections(s.prog, true), width)
	for i := 0; i < s.sh.ops; i++ {
		c := replaceInput(cfg.seed, "replace", i)
		exp, err := replaceGolden(s.prog, c)
		if err != nil {
			return nil, fmt.Errorf("input %d %+v: %w", i, c, err)
		}
		s.cases = append(s.cases, c)
		s.expected = append(s.expected, exp)
	}
	return s, nil
}

// replaceGolden runs c fault-free on the concrete machine, requires
// replace.Oracle's output codes, and returns the rendered output the study's
// incorrect-output predicate compares against.
func replaceGolden(prog *isa.Program, c replaceCase) (string, error) {
	want, _ := replace.Oracle(c.Pattern, c.Sub, c.Line)
	res := machine.New(prog, c.input(), machine.Options{Watchdog: 2_000_000}).Run()
	if res.Status != machine.StatusHalted {
		return "", fmt.Errorf("golden run %v (%v)", res.Status, res.Exception)
	}
	got := machine.OutputValues(res.Output)
	if len(got) != len(want) {
		return "", fmt.Errorf("golden output has %d values, oracle %d", len(got), len(want))
	}
	for i, v := range got {
		if !v.Equal(isa.Int(want[i])) {
			return "", fmt.Errorf("golden output[%d] = %v, oracle %d", i, v, want[i])
		}
	}
	return machine.RenderOutput(res.Output), nil
}

func (s *replaceSession) warm(ctx context.Context) error {
	c := replaceInput(s.cfg.seed, "warm-replace", 1) // an anchored shape: the cheap stratum
	exp, err := replaceGolden(s.prog, c)
	if err != nil {
		return err
	}
	out, err := s.study(ctx, c, exp, nil)
	if err == nil && out.Failures > 0 {
		err = fmt.Errorf("warm-up study failed")
	}
	return err
}

func (s *replaceSession) run(ctx context.Context, lim limits, tr *tracer) (phase, error) {
	return closedLoop(ctx, lim, s.sh, tr, func(ctx context.Context, i int) (opOut, error) {
		return s.study(ctx, s.cases[i], s.expected[i], tr)
	})
}

// study runs one input's tasks on the pool and tallies them per task.
func (s *replaceSession) study(ctx context.Context, c replaceCase, expected string, tr *tracer) (opOut, error) {
	spec := checker.Spec{
		Program:   s.prog,
		Input:     c.input(),
		Exec:      s.exec,
		Predicate: checker.IncorrectOutput(expected),
		// The task pool is the parallelism, as in cluster.RunCtx.
		Parallelism: 1,
	}
	reports := make([]cluster.TaskReport, len(s.tasks))
	lat := make([]float64, len(s.tasks))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tctx, sp := tr.start(ctx, "cluster.RunTaskCtx")
				t0 := time.Now()
				reports[i], _ = cluster.RunTaskCtx(tctx, spec, s.tasks[i], s.budget, s.maxFindings)
				lat[i] = ms(time.Since(t0))
				sp.end()
			}
		}()
	}
dispatch:
	for i := range s.tasks {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return opOut{}, err
	}

	out := opOut{latMS: lat}
	for _, r := range reports {
		out.Attempted++
		if r.Completed {
			out.Decided++
		}
		if r.Failure != "" || r.Panics > 0 || r.Interrupted {
			out.Failures++
		}
		out.Injections += int64(r.InjectionsDone)
		out.States += int64(r.StatesExplored)
		out.Findings += int64(len(r.Findings))
		for o, n := range r.Outcomes {
			out.outcome(o.String(), int64(n))
		}
		if tr != nil {
			s.execStats.Merge(r.Exec)
		}
	}
	return out, nil
}

// check: the studies' own checks ran in set-up (golden outputs) and in the
// tallies (failures); nothing needs the timed results.
func (s *replaceSession) check(context.Context, phase) []string { return nil }

func (s *replaceSession) layers(ph phase, sp *spanIndex, m metrics) {
	tasks := sp.durationsMS("cluster.RunTaskCtx")
	m.set("cluster.task_p50_ms", percentile(tasks, 50), "ms", len(tasks))
	m.set("cluster.task_p90_ms", percentile(tasks, 90), "ms", len(tasks))
	busy := sp.totalMS("cluster.RunTaskCtx")
	if wall := sp.totalMS("op"); wall > 0 {
		m.set("cluster.pool_idle_frac", 1-busy/(float64(s.workers)*wall), "ratio", len(tasks))
	}
	m.set("cluster.tasks_completed_frac", ph.total.decidedFrac(), "ratio", int(ph.total.Attempted))
	m.set("checker.ns_per_state", busy*1e6/float64(max(ph.total.States, 1)), "ns", int(ph.total.States))
	execLayers(s.execStats, ph.total.States, m)
}

func (s *replaceSession) probeInput() (*isa.Program, []int64) { return s.prog, s.cases[0].input() }

func (s *replaceSession) close() error { return nil }
