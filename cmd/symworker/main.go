// Command symworker is a pull-based campaign worker: it joins the campaign
// service started with `symplfied -serve`, claims injection tasks under
// renewable leases, sweeps them symbolically, and posts the per-injection
// reports back. Any number of workers can join and leave; a worker killed
// mid-task simply stops heartbeating and its task is re-served elsewhere.
//
// By default a worker serves the whole fleet: the service picks each task's
// campaign (priority first), and the worker exits once every campaign has
// settled. -campaign pins it to one campaign ID; -drain makes it exit when
// the campaign it just fed completes.
//
// The campaign kind is the service's choice: for a `-crossval` campaign the
// claimed tasks carry injection points instead of injections and the worker
// runs the concrete-vs-symbolic cross-validation sweep for them — no flags
// change on this side.
//
// Usage:
//
//	symworker -coordinator http://host:8080
//	symworker -coordinator http://host:8080 -id node42 -poll 2s
//	symworker -coordinator http://host:8080 -campaign <id>
//	symworker -coordinator http://host:8080 -metrics-addr :9091 -progress 5s
//	symworker -coordinator http://host:8080 -summary-cache
//
// -summaries elides explorations that compositional per-function fault
// summaries prove benign; -summary-cache additionally shares the
// content-addressed summary cache fleet-wide through the service's /summary
// endpoints (and implies -summaries).
//
// -metrics-addr serves /metrics, /debug/vars and /debug/pprof for this
// worker (lease/heartbeat/upload health plus the search-engine counters);
// -progress logs a one-line states/s report at the given interval.
//
// SIGINT abandons the current sweep (its lease lapses and the service
// re-serves it) and exits cleanly with the stats so far.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"symplfied/internal/dist"
	"symplfied/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "symworker:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("symworker", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "", "campaign service base URL (required), e.g. http://host:8080")
		id          = fs.String("id", "", "worker name in leases and fleet status (default: host-pid)")
		poll        = fs.Duration("poll", 0, "wait between claims when every remaining task is leased (0: 500ms)")
		quiet       = fs.Bool("quiet", false, "suppress per-task progress lines")
		metrics     = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9091 or :0)")
		progress    = fs.Duration("progress", 0, "log a one-line progress report at this interval (0: off)")
		parallel    = fs.Int("parallel", 0, "cores to fan each leased task's injection sweep across (0: all cores, 1: sequential)")
		pruneDead   = fs.Bool("prune-dead", false, "elide explorations of register injections a liveness proof shows benign (verdicts unchanged)")
		merge       = fs.Bool("merge", false, "merge states at post-dominators and fast-forward watchdog-bound loops on this node (verdicts unchanged)")
		summaries   = fs.Bool("summaries", false, "elide explorations compositional per-function fault summaries prove benign (verdicts unchanged)")
		shareCache  = fs.Bool("summary-cache", false, "share the summary cache through the service's /summary endpoints (implies -summaries)")
		campaignID  = fs.String("campaign", "", "serve only this campaign ID (default: the whole fleet)")
		drain       = fs.Bool("drain", false, "exit when the campaign just served completes, instead of rolling into the next open campaign")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("-coordinator is required (where is `symplfied -serve` running?)")
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
	if *id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	var onTask func(campaign, event string, task int)
	if !*quiet {
		onTask = func(campaign, event string, task int) {
			fmt.Printf("campaign %s task %d: %s\n", campaign, task, event)
		}
	}
	stats, err := dist.RunWorker(ctx, dist.WorkerConfig{
		Coordinator: strings.TrimRight(*coordinator, "/"),
		ID:          *id,
		Campaign:    *campaignID,
		Drain:       *drain,
		Poll:        *poll,
		OnTask:      onTask,
		Parallelism: *parallel,
		PruneDead:   *pruneDead,
		MergeStates: *merge,

		UseSummaries:      *summaries || *shareCache,
		ShareSummaryCache: *shareCache,
	})
	if err != nil {
		return err
	}
	fmt.Printf("worker %s: %d claimed, %d completed, %d duplicate, %d abandoned\n",
		*id, stats.Claimed, stats.Completed, stats.Duplicates, stats.Abandoned)
	return nil
}
