package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/faults"
)

// TestWorkloadsSmoke runs every workload at tiny size twice, once traced:
// both runs must pass their checks with no failed op, report every metric
// the result line needs, and agree exactly on the deterministic counters.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runWorkload(ctx, w, config{seed: 7, tiny: true}, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runWorkload(ctx, w, config{seed: 7, tiny: true, trace: true}, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d checks=%v", r.Traced, r.Correct, r.Failed, r.Attempted, r.Checks)
				}
			}
			for _, name := range endToEnd {
				m, ok := plain.Metrics[name]
				if !ok || math.IsNaN(m.Value) || m.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (present %v)", name, m, ok)
				}
			}
			for _, name := range perLayer {
				if m, ok := traced.Layers[name]; !ok || math.IsNaN(m.Value) {
					t.Errorf("per-layer %s = %+v (present %v)", name, m, ok)
				}
			}
			if len(traced.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if !reflect.DeepEqual(plain.Counters, traced.Counters) || !reflect.DeepEqual(plain.Totals, traced.Totals) {
				t.Errorf("deterministic counters differ between runs:\n%+v\n%+v", plain.Counters, traced.Counters)
			}
		})
	}
}

// TestResultLine checks the last output line's shape: exactly the keys
// correct, attempted, failed and metrics, and every end-to-end metric with
// its unit.
func TestResultLine(t *testing.T) {
	r := &result{Workload: "tcas-plain", Correct: true, Attempted: 3, Metrics: metrics{}}
	for _, name := range endToEnd {
		r.Metrics.set(name, 1.5, "u", 1)
	}
	var buf bytes.Buffer
	printFinalLine(&buf, []*result{r}, false)
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("keys %v", keys)
	}
	var m map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(endToEnd) {
		t.Fatalf("metrics %v, want %v", m, endToEnd)
	}
	for _, name := range endToEnd {
		if m[name]["value"] != 1.5 || m[name]["unit"] != "u" || len(m[name]) != 2 {
			t.Errorf("%s = %v", name, m[name])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program in step: the same
// workloads with the same reasons, and the same metric names in the same
// order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(bf.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, program %v", got, endToEnd)
	}
	if got := names(bf.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, program %v", got, perLayer)
	}
}

// TestTailPercentile pins the reporting rule: the highest percentile with at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 1, 3, 9, 5}, [3]float64{2, 5, 8}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

// TestVerdict covers -compare's classification, including the unresolved
// case: a spread wider than the bound hides any change within it, unless
// every run on one side beats every run on the other.
func TestVerdict(t *testing.T) {
	steady := []float64{100, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		better string
		floor  float64
		a, b   []float64
		want   string
	}{
		{"same", "lower", 0, steady, steady, "unchanged"},
		{"slower", "lower", 0, steady, []float64{120, 121, 119, 120, 120}, "REGRESSION"},
		{"faster", "lower", 0, steady, []float64{80, 81, 79, 80, 80}, "better"},
		{"throughput drop", "higher", 0, steady, []float64{80, 81, 79, 80, 80}, "REGRESSION"},
		{"noisy", "lower", 0, steady, []float64{60, 140, 100, 70, 130}, "unresolved"},
		{"noisy but every run better", "lower", 0, steady, []float64{10, 60, 20, 50, 30}, "better"},
		{"noisy but every run worse", "lower", 0, steady, []float64{150, 180, 200, 300, 400}, "REGRESSION"},
		{"noisy throughput, every run worse", "higher", 0, steady, []float64{10, 60, 20, 50, 30}, "REGRESSION"},
		{"slower within the absolute floor", "lower", 50, steady, []float64{140, 141, 139, 140, 140}, "unchanged"},
		{"slower beyond the absolute floor", "lower", 50, steady, []float64{160, 161, 159, 160, 160}, "REGRESSION"},
		{"jitter within the absolute floor", "lower", 50, steady, []float64{100, 125, 100, 140, 110}, "unchanged"},
	} {
		if _, _, _, got := verdict(c.better, 0.1, c.floor, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareRejectsInvalidRuns: a run whose checks failed or that had a
// failed op fails -compare, however its metrics compare.
func TestCompareRejectsInvalidRuns(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []boundedMetric{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	mk := func(correct bool, failed int) *result {
		r := &result{Workload: "tcas-plain", Seed: 1, Correct: correct, Attempted: 10, Failed: failed, Metrics: metrics{}}
		r.Metrics.set("latency_p50_ms", 10, "ms", 10)
		return r
	}
	for _, c := range []struct {
		name string
		b    *result
		want int
	}{
		{"valid", mk(true, 0), 0},
		{"incorrect", mk(false, 0), 1},
		{"failed op", mk(true, 1), 1},
	} {
		var buf bytes.Buffer
		if got := compareRuns(bf, []*result{mk(true, 0)}, []*result{c.b}, &buf); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, buf.String())
		}
	}
}

// TestCounterDrift: runs of one workload and seed must agree on the prefix
// counters, and on the totals when they made the same number of ops.
func TestCounterDrift(t *testing.T) {
	mk := func(states int64, ops int) *result {
		return &result{Workload: "w", Seed: 1, Counters: counters{Ops: 2, Tally: tally{States: 10}},
			Totals: counters{Ops: ops, Tally: tally{States: states}}}
	}
	if d := counterDrift([]*result{mk(20, 4), mk(20, 4), mk(30, 6)}); len(d) != 0 {
		t.Errorf("unexpected drift %v", d)
	}
	if d := counterDrift([]*result{mk(20, 4), mk(21, 4)}); len(d) != 1 {
		t.Errorf("drift %v, want one line", d)
	}
}

// TestSelfTime: a parent's self time excludes the union of its children's
// intervals, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Trace: 1, Start: 0, End: 100},
		{Name: "task", ID: 2, Trace: 1, Parent: 1, Start: 10, End: 50},
		{Name: "task", ID: 3, Trace: 1, Parent: 1, Start: 30, End: 70},
	}
	for _, st := range indexSpans(spans).table() {
		want := map[string]float64{"op": 40e-6, "task": 80e-6}[st.Name]
		if math.Abs(st.SelfMS-want) > 1e-12 {
			t.Errorf("%s self %v ms, want %v", st.Name, st.SelfMS, want)
		}
	}
}

// TestGeneratorsStable: a seed fixes every input, items do not depend on
// each other, the strata hold, and every generated input passes its oracle
// check.
func TestGeneratorsStable(t *testing.T) {
	prog, rprog := tcas.Program(), replace.Program()
	for i := 0; i < 2*tcasCycle; i++ {
		a, b := tcasInput(1, "tcas", i), tcasInput(1, "tcas", i)
		if a != b {
			t.Fatalf("tcas item %d differs between calls: %+v %+v", i, a, b)
		}
		if resolves(a) != (i%tcasCycle == 0) {
			t.Errorf("tcas item %d in the wrong stratum: %+v", i, a)
		}
		if err := checkTcasGolden(prog, a); err != nil {
			t.Error(err)
		}
		r1, r2 := replaceInput(1, "replace", i), replaceInput(1, "replace", i)
		if r1 != r2 {
			t.Fatalf("replace item %d differs between calls: %+v %+v", i, r1, r2)
		}
		if _, err := replaceGolden(rprog, r1); err != nil {
			t.Errorf("replace item %d %+v: %v", i, r1, err)
		}
	}
	if tcasInput(1, "tcas", 0) == tcasInput(2, "tcas", 0) || replaceInput(1, "replace", 0) == replaceInput(2, "replace", 0) {
		t.Error("seeds 1 and 2 generate the same first inputs")
	}
	if got := replaceInput(3, "replace", 1).Pattern; !strings.HasPrefix(got, "%") {
		t.Errorf("replace item 1 should be the anchored shape, got %q", got)
	}
}

// TestStudyMatchesCluster: replace-study's two-goroutine task pool computes
// the same task reports as cluster.RunCtx with two workers.
func TestStudyMatchesCluster(t *testing.T) {
	ctx := context.Background()
	s, err := setupReplace(ctx, config{seed: 5, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	rs := s.(*replaceSession)
	out, err := rs.study(ctx, rs.cases[0], rs.expected[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := checker.Spec{
		Program: rs.prog, Input: rs.cases[0].input(), Exec: rs.exec,
		Predicate: checker.IncorrectOutput(rs.expected[0]),
	}
	reports := cluster.RunCtx(ctx, spec, cluster.Split(faults.RegisterInjections(rs.prog, true), len(rs.tasks)),
		cluster.Config{Workers: 2, TaskStateBudget: rs.budget, MaxFindingsPerTask: rs.maxFindings})
	sum := cluster.Summarize(reports)
	if out.States != int64(sum.TotalStates) || out.Decided != int64(sum.Completed) ||
		out.Injections != int64(sum.TotalInjections) || out.Findings != int64(len(sum.Findings)) {
		t.Errorf("pool %+v, cluster.RunCtx states %d completed %d injections %d findings %d",
			out.tally, sum.TotalStates, sum.Completed, sum.TotalInjections, len(sum.Findings))
	}
}
