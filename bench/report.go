package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// result is one workload run.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Env      env     `json:"env"`
	Correct  bool    `json:"correct"`
	// Checks lists the correctness checks that failed.
	Checks    []string `json:"checks,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Metrics are the end-to-end metrics (measured on the traced phase in a
	// traced run, so compare only untraced runs).
	Metrics metrics `json:"metrics"`
	// Layers are the per-layer metrics of a traced run.
	Layers metrics `json:"layers,omitempty"`
	// Counters are deterministic: fixed by the seed over the prefix every
	// run completes, so they must match exactly between commits.
	Counters counters `json:"counters"`
	// Totals cover every op the run made; they match between two runs that
	// made the same number of ops.
	Totals counters `json:"totals"`
	// Spans is the per-span-name self-time table of a traced run.
	Spans []spanStat `json:"spans,omitempty"`
}

// counters is a tally over a stated number of ops.
type counters struct {
	Ops         int     `json:"ops"`
	Tally       tally   `json:"tally"`
	DecidedFrac float64 `json:"decided_frac"`
}

// env records where a run was measured.
type env struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
}

func readEnv() env {
	return env{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// reported in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// printResult prints one run as a table: every metric with its unit and
// sample count, then the counters, then (traced runs) the self-time table.
func printResult(w io.Writer, r *result) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  ops %d  failed %d  traced %v\n", r.Workload, r.Seed, status, r.Attempted, r.Failed, r.Traced)
	for _, name := range r.Metrics.names() {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-26s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	c := r.Counters
	fmt.Fprintf(w, "  counters over %d ops: injections %d  states %d  findings %d  decided %d/%d  outcomes %v\n",
		c.Ops, c.Tally.Injections, c.Tally.States, c.Tally.Findings, c.Tally.Decided, c.Tally.Attempted, c.Tally.Outcomes)
	if len(r.Layers) > 0 {
		fmt.Fprintln(w, "  per-layer:")
		for _, name := range r.Layers.names() {
			m := r.Layers[name]
			fmt.Fprintf(w, "    %-34s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
		}
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "  %-40s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "mean_us")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "  %-40s %9d %12.2f %12.2f %10.2f\n", s.Name, s.Count, s.TotalMS, s.SelfMS, s.MeanUS)
		}
	}
}

// finalLine is the one-line JSON result the last line of standard output
// carries.
type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printFinalLine prints the result line: the end-to-end metrics of untraced
// runs, or the per-layer metrics of traced ones. With several runs
// (-workload all) each metric name is prefixed by its workload.
func printFinalLine(w io.Writer, runs []*result, prefixed bool) {
	fl := finalLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range runs {
		fl.Correct = fl.Correct && r.Correct
		fl.Attempted += r.Attempted
		fl.Failed += r.Failed
		names, src := endToEnd, r.Metrics
		if r.Traced {
			names, src = perLayer, r.Layers
		}
		for _, name := range names {
			key := name
			if prefixed {
				key = r.Workload + "." + name
			}
			fl.Metrics[key] = valueUnit{Value: src[name].Value, Unit: src[name].Unit}
		}
	}
	line, err := json.Marshal(fl)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	fmt.Fprintln(w, string(line))
}

// resultsFile is the -out format: every run an invocation made.
type resultsFile struct {
	Runs []*result `json:"runs"`
}

func writeResults(path string, runs []*result) error {
	data, err := json.MarshalIndent(resultsFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// runCommand runs exe with args, sending its output to w, and waits for it.
// Cancelling ctx kills it.
func runCommand(ctx context.Context, exe string, args []string, w io.Writer) error {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = w
	cmd.Stderr = w
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	return nil
}
