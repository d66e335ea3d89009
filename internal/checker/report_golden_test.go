package checker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symexec"
)

// goldenApp is one benchmark application of the report golden test.
type goldenApp struct {
	name     string
	prog     *isa.Program
	input    []int64
	watchdog int
}

// goldenSetting is one combination of the elision knobs.
type goldenSetting struct {
	name             string
	merge, summaries bool
}

// TestReportGoldenCombinedOptions pins whole checker reports — per-injection
// tallies, exploration counters and every finding with its decision trace —
// for the three benchmark applications, the first sites of the register,
// memory and control classes, under every combination of state merging and
// compositional summaries. The expectations were recorded before the state
// images became flat copy-on-write tables; a change to the state
// representation, the fork fan-out or either elision must leave every byte
// of them unchanged. Regenerate with -update only for an intended change of
// what the search explores or reports.
func TestReportGoldenCombinedOptions(t *testing.T) {
	const sites = 40
	apps := []goldenApp{
		{"factorial", factorial.Plain(), []int64{5}, 400},
		{"tcas", tcas.Program(), tcas.UpwardInput().Slice(), 2_000},
		{"replace", replace.Program(), replace.Input("[a-c]x*", "<&>", "axx b cx"), 4_000},
	}
	settings := []goldenSetting{
		{"plain", false, false},
		{"merge", true, false},
		{"summaries", false, true},
		{"merge+summaries", true, true},
	}
	var out bytes.Buffer
	for _, app := range apps {
		ref := machine.New(app.prog, app.input, machine.Options{Watchdog: app.watchdog})
		expected := machine.RenderOutput(ref.Run().Output)
		notGolden := Predicate{Name: "not-golden", Match: func(s *symexec.State) bool {
			return s.Outcome() != symexec.OutcomeNormal || s.OutputString() != expected
		}}
		for _, class := range []faults.Class{faults.ClassRegister, faults.ClassMemory, faults.ClassControl} {
			injs := faults.ForClass(class, app.prog)
			injs = injs[:min(sites, len(injs))]
			for _, set := range settings {
				exec := symexec.DefaultOptions()
				exec.Watchdog = app.watchdog
				rep, err := Run(Spec{
					Program:      app.prog,
					Input:        app.input,
					Injections:   injs,
					Exec:         exec,
					Predicate:    notGolden,
					MaxFindings:  1,
					StateBudget:  3_000,
					Parallelism:  1,
					MergeStates:  set.merge,
					UseSummaries: set.summaries,
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", app.name, class, set.name, err)
				}
				// The spec carries the predicate closure, and the aggregate
				// findings repeat the per-injection ones.
				cp := *rep
				cp.Spec, cp.Findings = nil, nil
				data, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s/%s/%s %s\n", app.name, class, set.name, data)
			}
		}
	}

	path := filepath.Join("testdata", "report_golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d reports, want %d", len(gl)-1, len(wl)-1)
	}
	for i := range gl {
		if gl[i] == wl[i] {
			continue
		}
		g, w := gl[i], wl[i]
		at := 0
		for at < len(g) && at < len(w) && g[at] == w[at] {
			at++
		}
		name, _, _ := strings.Cut(g, " ")
		lo := max(0, at-120)
		t.Errorf("report %s differs from %s at byte %d:\n got: …%s\nwant: …%s",
			name, path, at, g[lo:min(len(g), at+120)], w[lo:min(len(w), at+120)])
	}
}
