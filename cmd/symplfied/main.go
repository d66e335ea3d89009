// Command symplfied runs a symbolic fault-injection search: it enumerates
// all errors of a hardware-error class that satisfy a goal (evade detection
// and cause failure), exactly as the framework's Maude search command did in
// the paper.
//
// Usage:
//
//	symplfied -app tcas -class register -goal wrong-advisory
//	symplfied -app replace -class register -goal incorrect-output -tasks 312
//	symplfied -file prog.sym -input 5 -class control -goal crash -traces 1
//
// With -tasks > 1 the search is decomposed cluster-style (paper Section 6.1)
// over a worker pool; otherwise it runs sequentially.
//
// Two static modes run no campaign: -analyze lints the program
// (control-flow, liveness, detector coverage) and exits nonzero on
// error-severity findings; -harden goes further and closes the reported
// coverage gaps — it synthesizes CHECK detectors, splices them in, verifies
// the fault-free run is unchanged, and re-measures detection coverage
// before and after (-harden-gaps caps the targeted gaps, -harden-out writes
// the hardened program + detectors). Both honor -json:
//
//	symplfied -analyze -app tcas
//	symplfied -harden -app tcas -harden-out hardened.sym
//
// With -serve the process becomes the campaign service instead of running
// the search itself: it registers the command line's campaign, partitions
// its injection space into -tasks tasks and serves them over HTTP to
// symworker processes (the paper's 150-node cluster harness, networked).
// More campaigns can be POSTed to /v1/campaigns. -store keeps every campaign
// in a durable directory, so a killed service restarts without re-running
// finished work; without it the campaigns live in memory:
//
//	symplfied -serve :8080 -store campaigns -app tcas -class register -goal wrong-advisory -tasks 150
//	symworker -coordinator http://host:8080   (on each worker machine)
//
// Long campaigns can be hardened operationally: -timeout bounds the whole
// run, -per-injection-timeout bounds each injection, -checkpoint journals
// completed injections to a JSON-lines file, -resume skips journaled ones,
// and -retries re-runs transient failures with degraded budgets. SIGINT
// stops the search gracefully, flushing the journal and printing the partial
// report, so the campaign can be resumed later.
//
// Observability: -metrics-addr serves /metrics (Prometheus text),
// /debug/vars (expvar) and /debug/pprof on a side port, and -progress logs a
// one-line report (states/s, frontier, findings, ETA) at the given interval.
// In -serve mode the service's own address also serves these endpoints.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"symplfied"
	"symplfied/internal/analysis"
	"symplfied/internal/cli"
	"symplfied/internal/dist"
	"symplfied/internal/obs"
	"symplfied/internal/query"
	"symplfied/internal/summary"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "symplfied:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("symplfied", flag.ContinueOnError)
	var (
		file      = fs.String("file", "", "assembly file to analyze")
		analyze   = fs.Bool("analyze", false, "statically analyze the program (CFG, liveness, detector coverage) and print diagnostics instead of searching; exits nonzero on error-severity findings")
		jsonOut   = fs.Bool("json", false, "with -analyze or -harden, print the report as JSON")
		hardenRun = fs.Bool("harden", false, "run the detector-hardening pass: find coverage gaps, synthesize CHECK detectors closing them, splice them in, and verify re-coverage with a targeted symbolic sweep plus a crossval spot-check; exits nonzero if verification fails")
		hardenOut = fs.String("harden-out", "", "with -harden, write the hardened unit (detector lines plus assembly) to this file")
		hardenMax = fs.Int("harden-gaps", 0, "with -harden, cap the number of coverage gaps targeted, largest window first (0: all)")
		summaries = fs.Bool("summaries", false, "elide explorations compositional per-function fault summaries prove benign (verdicts unchanged; see SYMPLFIED_CHECK_SUMMARIES)")
		sumCache  = fs.String("summary-cache", "", "persist content-addressed function summaries in this directory, so re-analysis after an edit recomputes only changed functions (implies -summaries)")
		merge     = fs.Bool("merge", false, "merge states rejoining at post-dominators and fast-forward watchdog-bound loops (verdicts unchanged, fewer states; see SYMPLFIED_CHECK_MERGING)")
		app       = fs.String("app", "", "built-in application: factorial | factorial-detectors | tcas | replace")
		isMIPS    = fs.Bool("mips", false, "treat -file as MIPS-dialect assembly")
		input     = fs.String("input", "", "comma-separated input stream (default: the app's canonical input)")
		className = fs.String("class", "register", "error class: register | memory | control | decode")
		goalName  = fs.String("goal", "incorrect-output", "goal: err-output | incorrect-output | wrong-advisory | crash | hang")
		watchdog  = fs.Int("watchdog", 0, "per-path instruction bound (0: default)")
		budget    = fs.Int("budget", 0, "state budget per injection or per task (0: default)")
		findings  = fs.Int("findings", 10, "findings cap per injection/task (0: unlimited)")
		tasks     = fs.Int("tasks", 1, "decompose into N cluster-style tasks")
		workers   = fs.Int("workers", 0, "worker pool size for -tasks (0: GOMAXPROCS)")
		parallel  = fs.Int("parallel", 0, "cores to fan the injection sweep across (0: all cores, 1: sequential; the report is identical either way)")
		traces    = fs.Int("traces", 0, "print the decision trace of the first N findings")
		noAffine  = fs.Bool("no-affine", false, "disable the affine constraint solver (paper-strict propagation)")
		graphOut  = fs.String("graph", "", "write the search graph of the first finding's injection to this Graphviz file")
		graphMax  = fs.Int("graph-nodes", 0, "node cap for -graph (0: default)")
		timeout   = fs.Duration("timeout", 0, "wall-clock bound for the whole search (0: none)")
		injTO     = fs.Duration("per-injection-timeout", 0, "wall-clock bound per injection (0: none)")
		ckpt      = fs.String("checkpoint", "", "journal completed injections to this JSON-lines file")
		resume    = fs.Bool("resume", false, "skip injections already recorded in -checkpoint")
		retries   = fs.Int("retries", 0, "retry transiently failed injections up to N times with degraded budgets")
		xval      = fs.Bool("crossval", false, "cross-validate the symbolic engine against concrete injection (differential testing; -class/-goal unused); exits nonzero on a conclusive SymbolicMiss")
		xvalSeed  = fs.Int64("crossval-seed", 2008, "seed for -crossval's per-site random value derivation")
		xvalRand  = fs.Int("crossval-random", 3, "random values per site for -crossval, on top of the three extremes")
		xvalOut   = fs.String("crossval-report", "", "write the full -crossval mismatch report (JSON) to this file")
		serve     = fs.String("serve", "", "serve the campaign to symworker processes on this address (e.g. :8080) instead of searching locally")
		lease     = fs.Duration("lease", 0, "task lease duration for -serve; a worker silent this long loses its task (0: 30s)")
		storeDir  = fs.String("store", "", "with -serve, keep every campaign in this durable store directory: open campaigns are resumed from it on start (default: in memory)")
		tenant    = fs.String("tenant", "", "with -serve, the tenant owning the initial campaign (default: \"default\")")
		priority  = fs.Int("priority", 0, "with -serve, the initial campaign's dispatch priority (higher is served first)")
		maxLeased = fs.Int("max-leased", 0, "with -serve, cap on tasks one tenant may hold leased fleet-wide (0: unlimited)")
		maxQueued = fs.Int("max-queued", 0, "with -serve, cap on open campaigns per tenant (0: unlimited)")
		campaigns = fs.String("campaigns", "", "list the campaigns on a running service at this base URL (e.g. http://host:8080) and exit")
		metrics   = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090 or :0)")
		progress  = fs.Duration("progress", 0, "log a one-line progress report at this interval (e.g. 2s; 0: off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *campaigns != "" {
		return listCampaigns(ctx, os.Stdout, *campaigns)
	}
	if *storeDir != "" && *serve == "" {
		return fmt.Errorf("-store requires -serve (it is the service's durable campaign store)")
	}
	if *serve != "" && (*ckpt != "" || *resume) {
		return fmt.Errorf("-checkpoint/-resume do not apply to -serve: use -store, which journals every campaign and always resumes open ones")
	}

	if *metrics != "" {
		bound, closeMetrics, err := obs.Serve(*metrics)
		if err != nil {
			return err
		}
		defer closeMetrics()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof at /debug/pprof/)\n", bound)
	}
	obs.StartProgress(ctx, obs.Default(), *progress, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})

	in, err := cli.ParseInput(*input)
	if err != nil {
		return err
	}
	if in == nil {
		in = cli.DefaultInput(*app)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	useSummaries := *summaries || *sumCache != ""
	var summaryCache *symplfied.SummaryCache
	if *sumCache != "" {
		store, err := symplfied.OpenSummaryDiskStore(*sumCache)
		if err != nil {
			return err
		}
		defer store.Close()
		summaryCache = symplfied.NewSummaryCache(0, store)
	} else if useSummaries {
		summaryCache = symplfied.NewSummaryCache(0, nil)
	}

	if *analyze {
		unit, err := cli.LoadUnit(*file, *app, *isMIPS)
		if err != nil {
			return err
		}
		return runAnalyze(os.Stdout, unit, *jsonOut)
	}

	if *hardenRun {
		unit, err := cli.LoadUnit(*file, *app, *isMIPS)
		if err != nil {
			return err
		}
		return runHarden(ctx, os.Stdout, unit, in, symplfied.HardenOptions{
			MaxGaps:      *hardenMax,
			StateBudget:  *budget,
			Watchdog:     *watchdog,
			CrossvalSeed: *xvalSeed,
			Parallelism:  *parallel,
		}, *jsonOut, *hardenOut)
	}

	if *serve != "" {
		doc := dist.SpecDoc{
			Name:                *app,
			App:                 *app,
			Input:               in,
			Class:               *className,
			Goal:                *goalName,
			Watchdog:            *watchdog,
			Tasks:               *tasks,
			TaskStateBudget:     *budget,
			MaxFindingsPerTask:  *findings,
			PerInjectionTimeout: *injTO,
			DisableAffineSolver: *noAffine,
		}
		if *xval {
			doc.Crossval = true
			doc.Seed = *xvalSeed
			doc.RandomPerReg = *xvalRand
		}
		if *file != "" {
			src, err := os.ReadFile(*file)
			if err != nil {
				return err
			}
			doc.Name, doc.Source, doc.MIPS = *file, string(src), *isMIPS
		}
		var initial *dist.SpecDoc
		if *app != "" || *file != "" {
			initial = &doc
		}
		return serveService(ctx, *serve, *storeDir, initial, serviceOptions{
			Lease:     *lease,
			Tenant:    *tenant,
			Priority:  *priority,
			MaxLeased: *maxLeased,
			MaxQueued: *maxQueued,
			Traces:    *traces,
			XvalOut:   *xvalOut,
		}, summaryCache)
	}

	if *xval {
		unit, err := cli.LoadUnit(*file, *app, *isMIPS)
		if err != nil {
			return err
		}
		rep, err := symplfied.CrossValidateCtx(ctx, symplfied.CrossvalSpec{
			Program:         unit.Program,
			Detectors:       unit.Detectors,
			Input:           in,
			Watchdog:        *watchdog,
			Seed:            *xvalSeed,
			RandomPerReg:    *xvalRand,
			StateBudget:     *budget,
			PerTrialTimeout: *injTO,
			Retries:         *retries,
		}, symplfied.CrossvalConfig{
			Parallelism: *parallel,
			Checkpoint:  *ckpt,
			Resume:      *resume,
		})
		if err != nil {
			return err
		}
		return reportCrossval(rep, *xvalOut, *ckpt)
	}

	unit, err := cli.LoadUnit(*file, *app, *isMIPS)
	if err != nil {
		return err
	}
	class, ok := query.ClassByName(*className)
	if !ok {
		return fmt.Errorf("unknown error class %q", *className)
	}
	goal, ok := query.GoalByName(*goalName)
	if !ok {
		return fmt.Errorf("unknown goal %q", *goalName)
	}

	if (*ckpt != "" || *resume) && *tasks > 1 {
		return fmt.Errorf("-checkpoint/-resume run the single-process campaign runner and cannot be combined with -tasks > 1")
	}

	spec := symplfied.SearchSpec{
		Unit:  unit,
		Input: in,
		Class: class,
		Goal:  goal,
		Limits: symplfied.Limits{
			Watchdog:            *watchdog,
			StateBudget:         *budget,
			MaxFindings:         *findings,
			PerInjectionTimeout: *injTO,
		},
		Parallelism:         *parallel,
		DisableAffineSolver: *noAffine,
		UseSummaries:        useSummaries,
		SummaryCache:        summaryCache,
		MergeStates:         *merge,
	}

	var found []symplfied.Finding
	if *tasks > 1 {
		reports, sum, err := symplfied.StudyCtx(ctx, spec, symplfied.StudyConfig{
			Tasks:              *tasks,
			TaskStateBudget:    *budget,
			MaxFindingsPerTask: *findings,
			Workers:            *workers,
			Parallelism:        *parallel,
			UseSummaries:       useSummaries,
			SummaryCache:       summaryCache,
			MergeStates:        *merge,
		})
		if err != nil {
			return err
		}
		fmt.Printf("tasks: %d launched, %d completed (%d empty, %d with findings), %d incomplete\n",
			sum.Tasks, sum.Completed, sum.CompletedEmpty, sum.CompletedWithFinds, sum.Incomplete)
		fmt.Printf("states explored: %d over %d injections\n", sum.TotalStates, sum.TotalInjections)
		if sum.Summarized > 0 {
			fmt.Printf("summarized: %d injections proven benign by compositional summaries (explorations elided; verdicts unchanged)\n",
				sum.Summarized)
		}
		if sum.Interrupted > 0 {
			fmt.Printf("interrupted: %d tasks were cut short (partial results above)\n", sum.Interrupted)
		}
		if sum.Panics > 0 {
			fmt.Printf("warning: %d injections panicked and were isolated\n", sum.Panics)
		}
		for _, r := range reports {
			if r.Err != nil {
				return fmt.Errorf("task %d: %w", r.TaskID, r.Err)
			}
		}
		found = sum.Findings
	} else {
		rep, stats, err := symplfied.SearchResilient(ctx, spec, symplfied.RunnerConfig{
			Checkpoint: *ckpt,
			Resume:     *resume,
			Retries:    *retries,
			Workers:    *workers,
		})
		if err != nil {
			return err
		}
		fmt.Printf("injections: %d (%d not activated), states explored: %d\n",
			len(rep.Spec.Injections), rep.NotActivated, rep.TotalStates)
		fmt.Printf("terminal outcomes: %v\n", rep.Outcomes)
		if rep.SummarizedInjections > 0 {
			fmt.Printf("summarized: %d injections proven benign by compositional summaries (explorations elided; verdicts unchanged)\n",
				rep.SummarizedInjections)
		}
		if stats.Resumed > 0 {
			fmt.Printf("resumed: %d injections restored from %s, %d executed\n", stats.Resumed, *ckpt, stats.Executed)
		}
		if stats.Retried > 0 {
			fmt.Printf("retries: %d degraded re-runs\n", stats.Retried)
		}
		if rep.BudgetBlown > 0 {
			fmt.Printf("warning: %d injections exhausted their state budget (findings are a sound subset)\n", rep.BudgetBlown)
		}
		if rep.Panics > 0 || rep.TimedOuts > 0 || rep.Errors > 0 {
			fmt.Printf("warning: %d panicked, %d timed out, %d errored (isolated; verdict downgraded)\n",
				rep.Panics, rep.TimedOuts, rep.Errors)
		}
		if rep.Interrupted {
			fmt.Printf("interrupted: %d injections not attempted", stats.NotAttempted)
			if *ckpt != "" {
				fmt.Printf("; re-run with -resume to continue from %s", *ckpt)
			}
			fmt.Println()
		}
		found = rep.Findings
	}

	fmt.Printf("findings (%s, goal %s): %d\n", class, goal, len(found))
	printFindings(found, *traces)

	if *graphOut != "" && len(found) > 0 {
		g, err := symplfied.ExploreSearchGraphCtx(ctx, spec, found[0].Injection, *graphMax)
		if err != nil {
			return fmt.Errorf("graph: %w", err)
		}
		if err := os.WriteFile(*graphOut, []byte(g.DOT()), 0o644); err != nil {
			return err
		}
		fmt.Printf("search graph (%d states, truncated=%v) written to %s\n",
			len(g.Nodes), g.Truncated, *graphOut)
	}
	return nil
}

// funcInfo is the -analyze view of one discovered function: its extent, its
// call structure, and the content-addressed key its fault summary caches
// under (internal/summary). Keys are canonical over the function body and
// its detector lines, so two -analyze runs agree on them exactly when the
// code agrees.
type funcInfo struct {
	Name         string
	Entry        int
	Size         int
	Exits        []int  `json:",omitempty"`
	Calls        []int  `json:",omitempty"` // call-site pcs, in body order
	Opaque       bool   `json:",omitempty"`
	OpaqueReason string `json:",omitempty"`
	Key          string
}

// blockInfo is the -analyze rendering of one basic block: its extent, its
// successors, and where its diverged paths rejoin (the immediate
// post-dominator pc, -1 for the virtual exit).
type blockInfo struct {
	Start, End int
	Succs      []int `json:",omitempty"`
	Dynamic    bool  `json:",omitempty"`
	IPostDom   int
	MergePoint bool `json:",omitempty"`
}

// runAnalyze is the -analyze mode: CFG + liveness + detector-coverage lint
// (internal/analysis) over the loaded program, plus the function partition
// with summary cache keys (internal/summary), printed human-readably or as
// JSON. Error-severity findings (unreachable detectors, unknown detector
// IDs, control falling off the end, invalid branch targets) make the exit
// status nonzero, so the lint gates CI the way `go vet` does.
func runAnalyze(w io.Writer, unit *symplfied.Unit, jsonOut bool) error {
	diags := analysis.Lint(unit.Program, unit.Detectors)
	errs, warns := analysis.Summary(diags)
	a := analysis.Analyze(unit.Program, unit.Detectors)
	blocks := make([]blockInfo, len(a.CFG.Blocks))
	for bi, b := range a.CFG.Blocks {
		ip := -1
		if a.PostDom.IPDom[bi] >= 0 {
			ip = a.CFG.Blocks[a.PostDom.IPDom[bi]].Start
		}
		blocks[bi] = blockInfo{
			Start:      b.Start,
			End:        b.End,
			Succs:      b.Succs,
			Dynamic:    b.DynamicSucc,
			IPostDom:   ip,
			MergePoint: a.PostDom.MergeBlock[bi],
		}
	}
	reg := obs.Default()
	reg.Counter(obs.MLintDiags, obs.L("severity", "error")).Add(int64(errs))
	reg.Counter(obs.MLintDiags, obs.L("severity", "warning")).Add(int64(warns))

	set := summary.Build(unit.Program, unit.Detectors, nil)
	funcs := make([]funcInfo, 0, len(set.Funcs.Funcs))
	for i, f := range set.Funcs.Funcs {
		fi := funcInfo{
			Name:         f.Name,
			Entry:        f.Entry,
			Size:         len(f.Body),
			Exits:        f.Exits,
			Opaque:       f.Opaque,
			OpaqueReason: f.OpaqueReason,
			Key:          set.Summaries()[i].Key,
		}
		for _, c := range f.Calls {
			fi.Calls = append(fi.Calls, c.PC)
		}
		funcs = append(funcs, fi)
	}

	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Program     string
			Errors      int
			Warnings    int
			Diagnostics []analysis.Diag
			Functions   []funcInfo
			Blocks      []blockInfo
		}{unit.Program.Name, errs, warns, diags, funcs, blocks}); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(w, "%s: %s\n", unit.Program.Name, d)
		}
		fmt.Fprintf(w, "%s: %d instructions analyzed, %d errors, %d warnings\n",
			unit.Program.Name, unit.Program.Len(), errs, warns)
		fmt.Fprintf(w, "%s: %d functions discovered\n", unit.Program.Name, len(funcs))
		for _, f := range funcs {
			fmt.Fprintf(w, "  %s @%d: %d instrs, %d exits, %d calls, key %s",
				f.Name, f.Entry, f.Size, len(f.Exits), len(f.Calls), f.Key)
			if f.Opaque {
				fmt.Fprintf(w, " (opaque: %s)", f.OpaqueReason)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s: %d basic blocks\n", unit.Program.Name, len(blocks))
		for bi, b := range blocks {
			ipdom := "exit"
			if b.IPostDom >= 0 {
				ipdom = fmt.Sprintf("@%d", b.IPostDom)
			}
			succs := fmt.Sprint(b.Succs)
			if b.Dynamic {
				succs = "dynamic"
			}
			fmt.Fprintf(w, "  block %d [%d,%d) succs=%s ipdom=%s", bi, b.Start, b.End, succs, ipdom)
			if b.MergePoint {
				fmt.Fprint(w, " merge-point")
			}
			fmt.Fprintln(w)
		}
	}
	if errs > 0 {
		return fmt.Errorf("analysis found %d error-severity finding(s)", errs)
	}
	return nil
}

// runHarden is the -harden mode: the detector-hardening compiler pass
// (internal/harden) over the loaded unit — coverage-gap analysis, CHECK
// synthesis, splice, fault-free gate, targeted before/after sweeps and a
// crossval spot-check — printed human-readably or as JSON, with the hardened
// unit optionally written out as assembly.
func runHarden(ctx context.Context, w io.Writer, unit *symplfied.Unit, input []int64,
	opt symplfied.HardenOptions, jsonOut bool, outPath string) error {

	res, err := symplfied.HardenCtx(ctx, unit, input, opt)
	if err != nil {
		return err
	}

	if outPath != "" {
		var b strings.Builder
		for _, d := range res.Detectors.All() {
			fmt.Fprintf(&b, "%s\n", d)
		}
		b.WriteString(res.Hardened.String())
		if err := os.WriteFile(outPath, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}

	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "%s: %d coverage gaps, %d targeted, %d hardened (%d detectors synthesized, %d instructions inserted)\n",
			res.Program, res.GapsFound, res.GapsTargeted, res.GapsHardened, res.Synthesized, res.Inserted)
		for _, g := range res.Gaps {
			if g.Dropped != "" {
				fmt.Fprintf(w, "  gap @%d %s (%d-site window, escapes to %s @%d): dropped: %s\n",
					g.Gap.DefPC, g.Gap.Reg, len(g.Gap.Window), g.Gap.Kind, g.Gap.EscapePC, g.Dropped)
				continue
			}
			fmt.Fprintf(w, "  gap @%d %s (%d-site window, escapes to %s @%d): %s: %s\n",
				g.Gap.DefPC, g.Gap.Reg, len(g.Gap.Window), g.Gap.Kind, g.Gap.EscapePC,
				g.Strategy, strings.Join(g.Detectors, "; "))
		}
		fmt.Fprintf(w, "%s: fault-free run preserved (output %q, %d steps); residual gaps %d (was %d)\n",
			res.Program, res.FaultFreeOutput, res.FaultFreeSteps, res.ResidualGaps, res.GapsFound)
		if len(res.Sites) > 0 {
			fmt.Fprintf(w, "%s: targeted sweep over %d sites: detected %d -> %d, undetected corruptions %d -> %d\n",
				res.Program, len(res.Sites), res.BeforeDetected, res.AfterDetected,
				res.BeforeUndetected, res.AfterUndetected)
		}
		if res.Crossval != nil {
			fmt.Fprintf(w, "%s: %s\n", res.Program, res.Crossval.Summary())
		}
	}
	if outPath != "" {
		fmt.Fprintf(w, "hardened unit written to %s\n", outPath)
	}
	return nil
}

// reportCrossval prints a cross-validation report, optionally writes the full
// JSON, and makes a conclusive SymbolicMiss the exit status.
func reportCrossval(rep *symplfied.CrossvalReport, out, ckpt string) error {
	fmt.Println(rep.Summary())
	if rep.Resumed > 0 {
		fmt.Printf("resumed: %d points restored from %s\n", rep.Resumed, ckpt)
	}
	if rep.Interrupted {
		fmt.Printf("interrupted: partial report")
		if ckpt != "" {
			fmt.Printf("; re-run with -resume to continue from %s", ckpt)
		}
		fmt.Println()
	}
	for i := range rep.Mismatches {
		m := &rep.Mismatches[i]
		if m.Class == symplfied.CrossvalSymbolicMiss {
			status := "CONCLUSIVE"
			if m.Inconclusive {
				status = "inconclusive (symbolic exploration incomplete)"
			}
			fmt.Printf("  symbolic-miss [%s]: %s\n", status, m.Repro)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("full report written to %s\n", out)
	}
	if !rep.Sound() {
		return fmt.Errorf("cross-validation found conclusive SymbolicMiss mismatches: the symbolic engine is unsound on this campaign")
	}
	return nil
}

// printFindings lists findings, with decision traces for the first n.
func printFindings(found []symplfied.Finding, n int) {
	for i, f := range found {
		fmt.Printf("  [%d] %s\n", i+1, f.Describe())
		if i < n {
			fmt.Println("      trace:")
			for _, e := range f.TraceEvents() {
				fmt.Printf("        %s\n", e)
			}
		}
	}
}

// listCampaigns is the -campaigns subcommand: list every campaign on a
// running service and exit.
func listCampaigns(ctx context.Context, w io.Writer, base string) error {
	cl := dist.NewClient(strings.TrimRight(base, "/"), nil)
	list, err := cl.Campaigns(ctx)
	if err != nil {
		return err
	}
	if len(list.Campaigns) == 0 {
		fmt.Fprintln(w, "no campaigns registered")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tTENANT\tPRIO\tSTATE\tTASKS\tCACHED\tVERDICT\tFINGERPRINT")
	for _, ci := range list.Campaigns {
		fp := ci.Fingerprint
		if len(fp) > 12 {
			fp = fp[:12]
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d/%d\t%d\t%s\t%s\n",
			ci.ID, ci.Tenant, ci.Priority, ci.State, ci.Done, ci.Total, ci.FromCache, ci.Verdict, fp)
	}
	return tw.Flush()
}

// serviceOptions carries the -serve service flags.
type serviceOptions struct {
	Lease     time.Duration
	Tenant    string
	Priority  int
	MaxLeased int
	MaxQueued int
	Traces    int
	XvalOut   string
}

// serveService runs the multi-tenant campaign service: a registry serving
// the versioned /v1 API to symworker fleets, over a DiskStore at storeDir or,
// when storeDir is empty, the registry's in-memory store. Every open
// campaign in the store is resumed on start; the initial document (when the
// command line names an app or file) is registered as a campaign unless an
// open campaign with the same fingerprint is already stored — so killing and
// restarting the service with the same flags resumes rather than
// duplicates. With an initial campaign the service exits once every
// campaign drains, printing the initial campaign's merged report; started
// bare it serves until interrupted.
func serveService(ctx context.Context, addr, storeDir string, initialDoc *dist.SpecDoc,
	opt serviceOptions, summaryCache *symplfied.SummaryCache) error {

	// Bind before building the registry: resuming large stores can take a
	// while, and workers started in that window should queue in the accept
	// backlog rather than get connection-refused.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var store dist.Store
	storeName := "in memory (-store unset: campaigns are lost on exit)"
	if storeDir != "" {
		disk, err := dist.NewDiskStore(storeDir)
		if err != nil {
			ln.Close()
			return err
		}
		store, storeName = disk, storeDir
	}
	reg, err := dist.NewRegistry(dist.RegistryConfig{
		Store:        store,
		Lease:        opt.Lease,
		Quotas:       dist.Quotas{MaxOpenCampaigns: opt.MaxQueued, MaxLeasedTasks: opt.MaxLeased},
		SummaryCache: summaryCache,
	})
	if err != nil {
		ln.Close()
		if store != nil {
			store.Close()
		}
		return err
	}

	var initial *dist.Coordinator
	if initialDoc != nil {
		fp, err := dist.DocFingerprint(*initialDoc)
		if err != nil {
			ln.Close()
			reg.Close()
			return err
		}
		for _, info := range reg.List().Campaigns {
			if info.Fingerprint != fp || info.State == dist.StateCancelled {
				continue
			}
			if c, ok := reg.Get(info.ID); ok {
				initial = c
				fmt.Printf("campaign %s resumed from %s (%d/%d tasks settled)\n",
					info.ID, storeDir, info.Done, info.Total)
				break
			}
		}
		if initial == nil {
			c, err := reg.Create(*initialDoc, opt.Tenant, opt.Priority)
			if err != nil {
				ln.Close()
				reg.Close()
				return err
			}
			initial = c
			fmt.Printf("campaign %s registered\n", c.ID())
		}
	}

	srv := &http.Server{Handler: dist.NewService(reg).Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	fmt.Printf("campaign service on %s, store %s\n", ln.Addr(), storeName)
	fmt.Printf("point workers here: symworker -coordinator http://%s\n", ln.Addr())
	fmt.Printf("list campaigns:     symplfied -campaigns http://%s\n", ln.Addr())

	interrupted := false
	if initial != nil {
		drained := make(chan struct{})
		go func() {
			if reg.WaitDrained(ctx) == nil {
				close(drained)
			}
		}()
		select {
		case <-drained:
			// Drain window: workers whose next claim raced the final
			// completion must hear Done before the listener goes away.
			select {
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
			}
		case <-ctx.Done():
			interrupted = true
		case err := <-serveErr:
			reg.Close()
			return err
		}
	} else {
		select {
		case <-ctx.Done():
			interrupted = true
		case err := <-serveErr:
			reg.Close()
			return err
		}
	}

	parent := ctx
	grace := 10 * time.Minute
	if interrupted {
		parent = context.Background()
		grace = 5 * time.Second
	}
	shutdownCtx, cancel := context.WithTimeout(parent, grace)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	if err := reg.Close(); err != nil {
		return err
	}

	for _, ci := range reg.List().Campaigns {
		fmt.Printf("campaign %s (%s, priority %d): %s, %d/%d tasks, %d from cache, verdict %s\n",
			ci.ID, ci.Tenant, ci.Priority, ci.State, ci.Done, ci.Total, ci.FromCache, ci.Verdict)
	}
	if initial == nil {
		return nil
	}
	merged := initial.Report()
	sum := merged.Summary
	fmt.Printf("tasks: %d launched, %d completed (%d empty, %d with findings), %d incomplete\n",
		sum.Tasks, sum.Completed, sum.CompletedEmpty, sum.CompletedWithFinds, sum.Incomplete)
	if merged.Crossval != nil {
		return reportCrossval(merged.Crossval, opt.XvalOut, "")
	}
	fmt.Printf("states explored: %d over %d injections\n", sum.TotalStates, sum.TotalInjections)
	if sum.Panics > 0 {
		fmt.Printf("warning: %d injections panicked and were isolated\n", sum.Panics)
	}
	if interrupted && !merged.Complete {
		st := initial.Status()
		fmt.Printf("interrupted: %d tasks unfinished", st.Queued+st.Leased)
		if storeDir != "" {
			fmt.Printf("; restart with the same -store to resume")
		}
		fmt.Println()
	}
	fmt.Printf("findings (%s, goal %s): %d\n", initialDoc.Class, initialDoc.Goal, len(sum.Findings))
	printFindings(sum.Findings, opt.Traces)
	return nil
}
