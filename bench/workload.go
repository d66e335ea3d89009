package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"symplfied/internal/isa"
)

// config is one workload run's settings.
type config struct {
	seed int64
	// seconds bounds the timed phase; 0 runs the workload's full fixed size.
	seconds float64
	trace   bool
	// spans names the JSON-lines file a traced run writes its spans to.
	spans string
	// tiny shrinks every size so a test can run all five workloads in
	// seconds. Results are not comparable with full-size runs.
	tiny bool
}

// workload is one named set of inputs with the reason it is in the
// benchmark.
type workload struct {
	name  string
	why   string
	setup func(ctx context.Context, cfg config) (session, error)
}

// session is one set-up workload, ready to time.
type session interface {
	// warm runs warm-up ops drawn from a seed stream separate from the
	// timed inputs, so caches fill before timing without changing what is
	// timed.
	warm(ctx context.Context) error
	// run executes the timed phase within lim. tr is nil on untraced runs.
	run(ctx context.Context, lim limits, tr *tracer) (phase, error)
	// check verifies outputs that need the timed phase's results and
	// returns one line per failed check.
	check(ctx context.Context, ph phase) []string
	// layers adds the workload's own per-layer metrics (traced runs).
	layers(ph phase, sp *spanIndex, m metrics)
	// probeInput is the program and input the layer probes run on: the
	// workload's own first input.
	probeInput() (*isa.Program, []int64)
	close() error
}

// limits bounds a timed phase.
type limits struct {
	// seconds is the time limit (0: none). Closed loops stop at the first
	// stratum-cycle boundary after it, so every run times the same input
	// mix.
	seconds float64
	// ops is the op count (0: the whole time limit, or the workload's fixed
	// size without one).
	ops int
}

// phase is what a timed phase measured.
type phase struct {
	wall   time.Duration
	ops    int       // ops attempted
	failed int       // ops with any failure
	latMS  []float64 // one latency sample per op (per task on replace-study)
	total  tally     // every op
	// explored counts the injections explored to a verdict inside the
	// timed window. On fleet-mixed it counts what the workers explored for
	// every tenant; elsewhere it is total.Injections.
	explored int64
	// cycleRates are the closed loops' injections per second over each
	// whole stratum cycle. injections_per_s is their median — the typical
	// throughput of the fixed input mix, which a burst of contention from
	// outside the process moves less than it moves the mean — and
	// explored/wall where there are none (fleet-mixed).
	cycleRates []float64
	// prefix covers the first prefixOps ops, which every run completes
	// whatever its length: the deterministic counters compared exactly
	// between commits.
	prefix    tally
	prefixOps int
	// extra holds workload-specific end-to-end metrics.
	extra metrics
}

// tally is what ops did, in deterministic units (no wall-clock readings).
type tally struct {
	// Injections counts injections explored to a verdict (inside the state
	// budget, no failure); on concrete-campaign, concrete trials.
	Injections int64 `json:"injections"`
	// Attempted and Decided are decided_frac's base and numerator:
	// injections, tasks or trials attempted, and those finished inside the
	// state budget.
	Attempted int64            `json:"attempted"`
	Decided   int64            `json:"decided"`
	States    int64            `json:"states"`
	Findings  int64            `json:"findings"`
	Outcomes  map[string]int64 `json:"outcomes,omitempty"`
	// Failures counts failed units: checker errors, panics and timeouts,
	// task failures, concrete panics, abandoned leases, HTTP errors after
	// retries, campaigns not done.
	Failures int64 `json:"failures"`
}

func (t *tally) add(o tally) {
	t.Injections += o.Injections
	t.Attempted += o.Attempted
	t.Decided += o.Decided
	t.States += o.States
	t.Findings += o.Findings
	t.Failures += o.Failures
	for k, v := range o.Outcomes {
		t.outcome(k, v)
	}
}

func (t *tally) outcome(name string, n int64) {
	if t.Outcomes == nil {
		t.Outcomes = make(map[string]int64)
	}
	t.Outcomes[name] += n
}

// shape is a closed loop's fixed sizes.
type shape struct {
	// ops is the fixed op count: the whole workload when -seconds is 0, and
	// the number of distinct inputs.
	ops int
	// prefix ops always run, however short the time limit.
	prefix int
	// cycle is the input strata period: a timed phase ends on a multiple
	// of it.
	cycle int
}

// opOut is one closed-loop op's result.
type opOut struct {
	tally
	// latMS replaces the op's own duration as its latency samples when the
	// op is a batch of smaller ops (a study of tasks).
	latMS []float64
}

// closedLoop runs op(i) for i = 0, 1, ... one after another: a single caller
// that sends the next op only when the previous one returns. Under a time
// limit it stops at the first cycle boundary after it, once the prefix is
// done; op i then reuses input i mod sh.ops, so a faster program still runs
// for the whole limit. Without one it runs lim.ops ops, or sh.ops. Each op is
// a root span.
func closedLoop(ctx context.Context, lim limits, sh shape, tr *tracer, op func(ctx context.Context, input int) (opOut, error)) (phase, error) {
	maxOps := lim.ops
	if maxOps == 0 && lim.seconds == 0 {
		maxOps = sh.ops
	}
	var ph phase
	start := time.Now()
	cycleStart, cycleInj := start, int64(0)
	for i := 0; maxOps == 0 || i < maxOps; i++ {
		if i > 0 && i%sh.cycle == 0 {
			ph.cycleRates = append(ph.cycleRates, perSecond(ph.total.Injections-cycleInj, time.Since(cycleStart)))
			cycleStart, cycleInj = time.Now(), ph.total.Injections
		}
		if i >= sh.prefix && i%sh.cycle == 0 && lim.seconds > 0 && time.Since(start).Seconds() >= lim.seconds {
			break
		}
		if err := ctx.Err(); err != nil {
			return ph, err
		}
		opCtx, sp := tr.start(ctx, "op")
		t0 := time.Now()
		out, err := op(opCtx, i%sh.ops)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return ph, fmt.Errorf("op %d: %w", i, err)
		}
		ph.ops++
		if out.Failures > 0 {
			ph.failed++
		}
		if out.latMS != nil {
			ph.latMS = append(ph.latMS, out.latMS...)
		} else {
			ph.latMS = append(ph.latMS, ms(d))
		}
		ph.total.add(out.tally)
		if i < sh.prefix {
			ph.prefix.add(out.tally)
			ph.prefixOps++
		}
	}
	ph.wall = time.Since(start)
	if ph.ops > 0 && ph.ops%sh.cycle == 0 && len(ph.cycleRates) < ph.ops/sh.cycle {
		ph.cycleRates = append(ph.cycleRates, perSecond(ph.total.Injections-cycleInj, time.Since(cycleStart)))
	}
	ph.explored = ph.total.Injections
	return ph, nil
}

// setupReps is how many times each run sets its workload up; setup_s is the
// median, so a slow set-up or two (a page-cache miss, a burst of contention
// from outside the process) do not move it.
const setupReps = 5

// runWorkload sets w up, warms it, times it, checks it and, on traced runs,
// measures its layers.
func runWorkload(ctx context.Context, w workload, cfg config, log io.Writer) (*result, error) {
	var s session
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		next, err := w.setup(ctx, cfg)
		if err != nil {
			if s != nil {
				s.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		s = next
	}
	defer s.close()
	if err := s.warm(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	lim := limits{seconds: cfg.seconds}
	rt0 := readRuntime()
	ph, err := s.run(ctx, lim, tr)
	rt1 := readRuntime()
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	failedChecks := s.check(ctx, ph)
	for _, c := range failedChecks {
		fmt.Fprintf(log, "bench: %s: check failed: %s\n", w.name, c)
	}

	res := &result{
		Workload:  w.name,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Traced:    cfg.trace,
		Env:       readEnv(),
		Correct:   len(failedChecks) == 0,
		Checks:    failedChecks,
		Attempted: ph.ops,
		Failed:    ph.failed,
		Metrics:   endToEndMetrics(ph, setups, peakRSSMB()),
		Counters:  counters{Ops: ph.prefixOps, Tally: ph.prefix, DecidedFrac: ph.prefix.decidedFrac()},
		Totals:    counters{Ops: ph.ops, Tally: ph.total, DecidedFrac: ph.total.decidedFrac()},
	}
	if !cfg.trace {
		return res, nil
	}

	idx := indexSpans(tr.snapshot())
	lay := metrics{}
	s.layers(ph, idx, lay)
	runtimeLayers(rt0, rt1, ph, lay)
	prog, input := s.probeInput()
	if err := probeLayers(prog, input, lay); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	overhead, err := traceOverhead(ctx, w, cfg, ph)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	lay.set("trace.overhead_frac", overhead, "ratio", ph.ops)
	res.Layers = lay
	res.Spans = idx.table()
	if cfg.spans != "" {
		if err := tr.writeJSONL(cfg.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceOverhead replays the traced phase's ops untraced on a fresh session
// of the same seed and returns how much slower the traced phase was:
// untraced over traced injections per second, minus one.
func traceOverhead(ctx context.Context, w workload, cfg config, traced phase) (float64, error) {
	s, err := w.setup(ctx, cfg)
	if err != nil {
		return 0, err
	}
	defer s.close()
	if err := s.warm(ctx); err != nil {
		return 0, err
	}
	ph, err := s.run(ctx, limits{ops: traced.ops}, nil)
	if err != nil {
		return 0, err
	}
	if ph.failed > 0 {
		return 0, fmt.Errorf("%d of %d ops failed", ph.failed, ph.ops)
	}
	tracedRate := perSecond(traced.explored, traced.wall)
	if tracedRate == 0 {
		return 0, nil
	}
	return perSecond(ph.explored, ph.wall)/tracedRate - 1, nil
}

// endToEnd names the metrics every run reports with tracing off, in
// BENCHMARK.json order: each is defined on every workload and never 0.
var endToEnd = []string{"setup_s", "injections_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}

// perLayer names the per-layer metrics every traced run reports, in
// BENCHMARK.json order: the ones measured on every workload. Traced runs
// also report each workload's own layer metrics (see README.md); those are
// in the results file and the printed table.
var perLayer = []string{
	"machine.ns_per_instr",
	"symexec.step_ns",
	"symexec.clone_ns",
	"symexec.clone_allocs",
	"symexec.keyhash_ns",
	"runtime.alloc_bytes_per_op",
	"runtime.mallocs_per_op",
	"runtime.gc_cycles",
	"runtime.gc_cpu_frac",
	"trace.overhead_frac",
}

// endToEndMetrics derives the end-to-end metrics from a timed phase.
func endToEndMetrics(ph phase, setups []float64, rssMB float64) metrics {
	m := metrics{}
	m.set("setup_s", median(setups), "s", len(setups))
	if len(ph.cycleRates) > 0 {
		m.set("injections_per_s", median(ph.cycleRates), "1/s", len(ph.cycleRates))
	} else {
		m.set("injections_per_s", perSecond(ph.explored, ph.wall), "1/s", ph.ops)
	}
	lat := sortedCopy(ph.latMS)
	m.set("latency_p50_ms", percentile(lat, 50), "ms", len(lat))
	m.set("latency_p90_ms", percentile(lat, 90), "ms", len(lat))
	if p := tailPercentile(len(lat)); p > 90 {
		m.set(fmt.Sprintf("latency_p%s_ms", strings.ReplaceAll(fmt.Sprint(p), ".", "_")), percentile(lat, p), "ms", len(lat))
	}
	m.set("decided_frac", ph.total.decidedFrac(), "ratio", int(ph.total.Attempted))
	m.set("failed_frac", float64(ph.failed)/float64(max(ph.ops, 1)), "ratio", ph.ops)
	m.set("peak_rss_mb", rssMB, "MB", 1)
	for k, v := range ph.extra {
		m[k] = v
	}
	return m
}

func (t tally) decidedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Decided) / float64(t.Attempted)
}

func perSecond(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

var workloads = []workload{
	{
		name:  "tcas-plain",
		why:   "every elision off: the symbolic step, fork/clone and solver do all the work; merging, summaries, cluster and dist are bypassed",
		setup: func(ctx context.Context, cfg config) (session, error) { return setupTcas(ctx, cfg, false) },
	},
	{
		name:  "tcas-elided",
		why:   "the same inputs with state merging and a shared warm summary cache on: merge and summary changes show here, not on tcas-plain",
		setup: func(ctx context.Context, cfg config) (session, error) { return setupTcas(ctx, cfg, true) },
	},
	{
		name:  "replace-study",
		why:   "a larger program with memory-heavy states and load/store forks on a 2-worker task pool; most tasks hit the state budget",
		setup: setupReplace,
	},
	{
		name:  "concrete-campaign",
		why:   "millions of concrete machine runs and no symbolic work: interpreter changes show here, symbolic ones must not",
		setup: setupConcrete,
	},
	{
		name:  "fleet-mixed",
		why:   "the campaign service over loopback HTTP: dispatch, leases, journal appends and the result cache under an open-loop tenant",
		setup: setupFleet,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runAll runs every workload in its own fresh process, so peak RSS and the
// process-global intern table belong to one workload alone.
func runAll(ctx context.Context, cfg config, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp("", "symbench-all-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	var all []*result
	for _, w := range workloads {
		res, err := runChild(ctx, exe, dir, w.name, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		printResult(stdout, res)
		all = append(all, res)
	}
	if out != "" {
		if err := writeResults(out, all); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	printFinalLine(stdout, all, true)
	for _, res := range all {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// runChild runs one workload in a child process and reads back its results
// file. The child's own output goes to stderr, so this process's standard
// output still ends with its own result line.
func runChild(ctx context.Context, exe, dir, name string, cfg config, stderr io.Writer) (*result, error) {
	resFile := fmt.Sprintf("%s/%s.json", dir, name)
	args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-out", resFile}
	switch {
	case cfg.spans != "":
		args = append(args, "-trace", spansFileFor(cfg.spans, name))
	case cfg.trace:
		args = append(args, "-trace", "1")
	}
	// A child whose checks failed exits 1 but still writes its results.
	cmdErr := runCommand(ctx, exe, args, stderr)
	runs, err := readResults(resFile)
	if err != nil {
		if cmdErr != nil {
			return nil, cmdErr
		}
		return nil, err
	}
	if len(runs) != 1 {
		return nil, fmt.Errorf("%s: want one run, got %d", resFile, len(runs))
	}
	return runs[0], nil
}

// spansFileFor names one workload's span file under a -workload all run:
// t.jsonl becomes t.tcas-plain.jsonl.
func spansFileFor(path, name string) string {
	return strings.TrimSuffix(path, ".jsonl") + "." + name + ".jsonl"
}

// metrics maps a metric name to its value.
type metrics map[string]metric

// metric is one measured value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
