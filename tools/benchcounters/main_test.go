package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchCounters: a fresh run whose counters and totals match the newest
// BENCH file's fixed-size record passes; older files are ignored; a drifted
// tally, a missing workload or a timed run fails.
func TestBenchCounters(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("BENCH_001.json", `{"ordinal": 1}`)
	write("BENCH_002.json", `{"fixed": {"seed": 1, "workloads": {
		"a": {"workload": "a", "counters": {"states": 5, "outcomes": {"hang": 1}}, "totals": {"ops": 2}},
		"b": {"workload": "b", "counters": {"states": 7}, "totals": {"ops": 3}}}}}`)
	for _, c := range []struct {
		name, runs string
		code       int
		says       string
	}{
		{"match", `[{"workload": "a", "seed": 1, "counters": {"outcomes": {"hang": 1}, "states": 5}, "totals": {"ops": 2}},
			{"workload": "b", "seed": 1, "counters": {"states": 7}, "totals": {"ops": 3}}]`, 0, "match BENCH_002.json"},
		{"drift", `[{"workload": "a", "seed": 1, "counters": {"outcomes": {"hang": 2}, "states": 5}, "totals": {"ops": 2}},
			{"workload": "b", "seed": 1, "counters": {"states": 7}, "totals": {"ops": 3}}]`, 1, "a: counters"},
		{"missing", `[{"workload": "a", "seed": 1, "counters": {"outcomes": {"hang": 1}, "states": 5}, "totals": {"ops": 2}}]`, 1, "b: recorded but not run"},
		{"timed", `[{"workload": "a", "seed": 1, "seconds": 15, "counters": {"outcomes": {"hang": 1}, "states": 5}, "totals": {"ops": 2}},
			{"workload": "b", "seed": 1, "counters": {"states": 7}, "totals": {"ops": 3}}]`, 1, "want a fixed-size run"},
	} {
		path := write("run.json", `{"runs": `+c.runs+`}`)
		var out, errOut bytes.Buffer
		if code := mainErr([]string{"-dir", dir, path}, &out, &errOut); code != c.code || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: exit %d, want %d; output %q %q", c.name, code, c.code, out.String(), errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := mainErr([]string{"-dir", t.TempDir(), "x.json"}, &out, &errOut); code != 2 {
		t.Errorf("no BENCH file: exit %d, want 2", code)
	}
}
