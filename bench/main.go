// Command bench is the repository's benchmark. It runs five seeded
// workloads through the public calls of the checker, the cluster harness,
// the concrete campaign runner and the campaign service; checks every output
// against an independent oracle outside the timed window; and reports the
// end-to-end metrics a user of the system sees (throughput in injections
// explored to a verdict per second, per-op latency, set-up time, peak
// memory). With -trace it records spans around the calls it makes into each
// layer and reports per-layer metrics and self time per span name.
//
// Run it through run.sh, which builds this package with every build and
// temporary file kept under .bench_build/ in the current directory:
//
//	bash bench/run.sh -workload tcas-plain -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload all -seed 1 -out r.json
//	bash bench/run.sh -workload all -trace t.jsonl
//	bash bench/run.sh -compare A1.json,A2.json B1.json,B2.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and how they relate.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process: it parses args, runs what they ask for
// and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all (one fresh process each)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 0, "length of the timed phase; 0 runs each workload's full fixed size")
	traceArg := fs.String("trace", "0", "0: untraced; 1: traced run with per-layer metrics; any other value: traced, spans written to that JSON-lines file")
	out := fs.String("out", "", "write the full results (every metric, counters, environment) to this JSON file")
	compare := fs.String("compare", "", "compare result files: -compare A1.json,A2.json B1.json,B2.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare takes the A files as its value and the B files as one argument")
			return 2
		}
		return compareMain(*compare, fs.Arg(0), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	traced, spansPath := parseTrace(*traceArg)
	cfg := config{seed: *seed, seconds: *seconds, trace: traced, spans: spansPath}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 0")
		return 2
	}
	if *workload == "all" {
		return runAll(ctx, cfg, *out, stdout, stderr)
	}
	w, ok := lookupWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *workload, workloadNames())
		return 2
	}
	res, err := runWorkload(ctx, w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	printResult(stdout, res)
	if *out != "" {
		if err := writeResults(*out, []*result{res}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	printFinalLine(stdout, []*result{res}, false)
	if !res.Correct {
		return 1
	}
	return 0
}

// parseTrace reads the -trace value: "0" is off, "1" is on, anything else is
// on with the spans written to that file.
func parseTrace(v string) (on bool, spansPath string) {
	switch v {
	case "", "0", "false":
		return false, ""
	case "1", "true":
		return true, ""
	}
	return true, v
}
