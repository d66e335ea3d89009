// Command benchcounters gates the benchmark's deterministic counters: it
// compares the counters of a fresh fixed-size run of every workload with
// the ones the newest committed BENCH_<ordinal>.json records, and fails on
// any drift. A fixed-size run (-seconds 0) explores the same inputs in the
// same order every time, so its per-workload counters (states, findings,
// outcome tallies over the checked prefix) and totals (the same over every
// op) depend only on the code: a change that alters them changes what the
// program computes, and must commit a new BENCH file that says why. Wall
// time is not compared: it stays advisory, judged by bench/run.sh -compare.
//
// Usage:
//
//	bash bench/run.sh -workload all -seed 1 -seconds 0 -out fixed.json
//	go run ./tools/benchcounters [-dir .] fixed.json
//
// The BENCH file's "fixed" section holds the recorded run: the command, and
// per workload its counters and totals. Exit status 1 on any drift, 2 on a
// usage or input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
)

// run is one workload's result in a run.sh -out file.
type run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Counters any     `json:"counters"`
	Totals   any     `json:"totals"`
}

// fixed is a BENCH file's record of a fixed-size run.
type fixed struct {
	Command   string         `json:"command"`
	Seed      int64          `json:"seed"`
	Workloads map[string]run `json:"workloads"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcounters", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory holding the committed BENCH_<ordinal>.json files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchcounters [-dir .] <run.sh -out file>")
		return 2
	}
	path, err := newestBench(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "benchcounters:", err)
		return 2
	}
	want, err := readFixed(path)
	if err != nil {
		fmt.Fprintln(stderr, "benchcounters:", err)
		return 2
	}
	got, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchcounters:", err)
		return 2
	}
	drift := compare(want, got)
	for _, line := range drift {
		fmt.Fprintln(stdout, "DRIFT", line)
	}
	if len(drift) > 0 {
		fmt.Fprintf(stdout, "%d counter drift(s) against %s: a change that alters what the workloads compute must commit a new BENCH file\n", len(drift), filepath.Base(path))
		return 1
	}
	fmt.Fprintf(stdout, "deterministic counters of %d workloads match %s\n", len(want.Workloads), filepath.Base(path))
	return 0
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// newestBench returns the BENCH file with the highest ordinal in dir.
func newestBench(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestOrd := "", -1
	for _, e := range entries {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if ord, _ := strconv.Atoi(m[1]); ord > bestOrd {
			best, bestOrd = e.Name(), ord
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<ordinal>.json in %s", dir)
	}
	return filepath.Join(dir, best), nil
}

// readFixed reads the fixed-size run a BENCH file records.
func readFixed(path string) (fixed, error) {
	var f struct {
		Fixed *fixed `json:"fixed"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fixed{}, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fixed{}, fmt.Errorf("%s: %w", path, err)
	}
	if f.Fixed == nil || len(f.Fixed.Workloads) == 0 {
		return fixed{}, fmt.Errorf("%s records no fixed-size run", path)
	}
	return *f.Fixed, nil
}

// readRuns reads a run.sh -out file.
func readRuns(path string) ([]run, error) {
	var f struct {
		Runs []run `json:"runs"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// compare returns one line per drift between the recorded fixed-size run
// and the fresh runs: a workload missing from either side, a run that is
// not fixed-size or has another seed, or counters or totals that differ.
func compare(want fixed, got []run) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range got {
		seen[r.Workload] = true
		w, ok := want.Workloads[r.Workload]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: not recorded", r.Workload))
		case r.Seconds != 0 || r.Seed != want.Seed:
			out = append(out, fmt.Sprintf("%s: a run of %gs with seed %d, want a fixed-size run with seed %d", r.Workload, r.Seconds, r.Seed, want.Seed))
		case !reflect.DeepEqual(w.Counters, r.Counters):
			out = append(out, fmt.Sprintf("%s: counters %s, recorded %s", r.Workload, js(r.Counters), js(w.Counters)))
		case !reflect.DeepEqual(w.Totals, r.Totals):
			out = append(out, fmt.Sprintf("%s: totals %s, recorded %s", r.Workload, js(r.Totals), js(w.Totals)))
		}
	}
	var missing []string
	for name := range want.Workloads {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		out = append(out, fmt.Sprintf("%s: recorded but not run", name))
	}
	return out
}

func js(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
