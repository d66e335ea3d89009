package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and the share of the baseline's median by
// which it may worsen before a change is a regression.
type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmark reads BENCHMARK.json from the current directory or its
// parent (the repository root, when run from bench/).
func loadBenchmark() (benchmarkFile, error) {
	var bf benchmarkFile
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return bf, err
		}
		if err := json.Unmarshal(data, &bf); err != nil {
			return bf, fmt.Errorf("%s: %w", p, err)
		}
		return bf, nil
	}
	return bf, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// compareMain compares result files A (the baseline) with B (the change):
// per workload and end-to-end metric, each side's median and quartiles and
// a verdict against the metric's bound; and the deterministic counters,
// which must match exactly. It exits 1 on any regression, counter drift, or
// run whose checks failed or that had a failed op.
func compareMain(aList, bList string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmark()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readRunLists(aList)
	if err == nil {
		var b []*result
		if b, err = readRunLists(bList); err == nil {
			return compareRuns(bf, a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func readRunLists(list string) ([]*result, error) {
	var all []*result
	for _, p := range strings.Split(list, ",") {
		if p == "" {
			continue
		}
		runs, err := readResults(p)
		if err != nil {
			return nil, err
		}
		all = append(all, runs...)
	}
	return all, nil
}

// absoluteFloor is, per metric, the smallest change in the metric's unit
// that can count: the bound is the larger of the relative bound and this.
// Set-up takes milliseconds on most workloads, where a relative bound alone
// would flag sub-millisecond jitter.
var absoluteFloor = map[string]float64{"setup_s": 0.05}

// verdict classifies one metric's change from A to B. A change counts only
// when it exceeds max(bound × A's median, floor); effBound is that larger
// amount as a share of A's median.
func verdict(better string, bound, floor float64, a, b []float64) (change, spread, effBound float64, v string) {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	change = (mb - ma) / ma
	worse := change
	if better == "higher" {
		worse = -change
	}
	effBound = max(bound, floor/ma)
	spread = max((qa3-qa1)/ma, (qb3-qb1)/mb)
	switch {
	case spread > effBound && allBeyond(better, a, b):
		v = "better"
	case spread > effBound && allBeyond(better, b, a):
		v = "REGRESSION"
	case spread > effBound:
		// The runs disagree by more than the bound: a change within the
		// spread could be noise either way.
		v = "unresolved"
	case worse > effBound:
		v = "REGRESSION"
	case -worse > effBound:
		v = "better"
	default:
		v = "unchanged"
	}
	return change, spread, effBound, v
}

// allBeyond reports whether every y value beats every x value.
func allBeyond(better string, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// invalidRuns returns one line per run that cannot be compared: a failed
// correctness check, or any failed op. failed_frac is an exact metric that
// must be 0 on both sides, so a failed op is an error, not a slowdown.
func invalidRuns(runs []*result) []string {
	var out []string
	for _, r := range runs {
		if !r.Correct {
			out = append(out, fmt.Sprintf("%s seed %d: correctness checks failed: %v", r.Workload, r.Seed, r.Checks))
		}
		if r.Failed > 0 {
			out = append(out, fmt.Sprintf("%s seed %d: %d of %d ops failed (failed_frac must be 0)", r.Workload, r.Seed, r.Failed, r.Attempted))
		}
	}
	return out
}

func compareRuns(bf benchmarkFile, a, b []*result, w io.Writer) int {
	bad, unresolved := 0, 0
	all := append(append([]*result(nil), a...), b...)
	for _, line := range invalidRuns(all) {
		fmt.Fprintln(w, "INVALID RUN:", line)
		bad++
	}
	fmt.Fprintf(w, "%-18s %-18s %28s %28s %8s %7s %6s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		av, bv := untraced(a, wl.name), untraced(b, wl.name)
		if len(av) == 0 || len(bv) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			xs, ys := values(av, m.Name), values(bv, m.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			change, spread, bound, v := verdict(m.Better, m.Bound, absoluteFloor[m.Name], xs, ys)
			switch v {
			case "REGRESSION":
				bad++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-18s %-18s %28s %28s %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, side(xs), side(ys), 100*change, 100*spread, 100*bound, v)
		}
	}
	for _, line := range counterDrift(all) {
		fmt.Fprintln(w, "COUNTER DRIFT:", line)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s), invalid run(s) or counter drift(s); %d unresolved\n", bad, unresolved)
		return 1
	}
	if unresolved > 0 {
		fmt.Fprintf(w, "no regression found, but %d metric(s) unresolved: their spread exceeds the bound, so rerun with more runs per side; deterministic counters identical\n", unresolved)
		return 0
	}
	fmt.Fprintln(w, "no regression; deterministic counters identical")
	return 0
}

func side(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", q2, q1, q3, len(xs))
}

func untraced(runs []*result, workload string) []*result {
	var out []*result
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []*result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// counterDrift returns one line per deterministic-counter mismatch between
// runs of the same workload and seed: the prefix counters always, and the
// totals of runs that made the same number of ops.
func counterDrift(runs []*result) []string {
	type key struct {
		workload string
		seed     int64
	}
	first := map[key]*result{}
	byOps := map[string]*result{}
	var out []string
	for _, r := range runs {
		k := key{r.Workload, r.Seed}
		if ref, ok := first[k]; !ok {
			first[k] = r
		} else if !reflect.DeepEqual(ref.Counters, r.Counters) {
			out = append(out, fmt.Sprintf("%s seed %d: prefix counters %+v vs %+v", r.Workload, r.Seed, ref.Counters, r.Counters))
		}
		tk := fmt.Sprintf("%s/%d/%d", r.Workload, r.Seed, r.Totals.Ops)
		if ref, ok := byOps[tk]; !ok {
			byOps[tk] = r
		} else if !reflect.DeepEqual(ref.Totals, r.Totals) {
			out = append(out, fmt.Sprintf("%s seed %d: totals over %d ops %+v vs %+v", r.Workload, r.Seed, r.Totals.Ops, ref.Totals, r.Totals))
		}
	}
	return out
}
