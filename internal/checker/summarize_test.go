package checker

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"symplfied/internal/analysis"
	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symexec"
)

// tcasExhaustiveSpec builds the acceptance-criteria campaign: the exhaustive
// (sources=false) register space — every architectural register at every
// instruction, the 800x32 shape the paper's Section 6.1 prunes — restricted
// to the first maxInjections entries to keep the test fast. The slice is
// pc-major, so a prefix still covers whole sites (every register at each
// included pc), which is what summaries need to show their savings.
func tcasExhaustiveSpec(maxInjections int) Spec {
	prog := tcas.Program()
	injections := faults.RegisterInjections(prog, false)
	if len(injections) > maxInjections {
		injections = injections[:maxInjections]
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	return Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  injections,
		Exec:        exec,
		Predicate:   HaltedOutputOtherThan(tcas.UpwardRA),
		StateBudget: 1500,
		Dedup:       true,
	}
}

// stripSummaryMarkers clears the fields a summarized run legitimately adds,
// so the rest of the report can be compared byte-for-byte against a plain
// run.
func stripSummaryMarkers(rep *Report) {
	rep.Spec = nil
	rep.SummarizedInjections = 0
	for i := range rep.PerInjection {
		rep.PerInjection[i].Summarized = false
	}
}

// TestSummariesTcasExhaustive is the acceptance-criteria test: on an
// exhaustive tcas register campaign, -summaries explores strictly fewer
// injections (measured by the live state counter — the report tallies are
// deliberately identical) while producing the identical per-injection
// verdict set. The check is stronger than verdict identity: after removing
// the Summarized markers, the two reports are byte-identical as JSON — every
// outcome tally, finding, and exec stat matches.
func TestSummariesTcasExhaustive(t *testing.T) {
	spec := tcasExhaustiveSpec(4 * int(isa.NumRegs-1)) // four whole sites
	spec.Parallelism = 1

	before := liveStates.Value()
	plain, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	plainStates := liveStates.Value() - before

	summarized := spec
	summarized.UseSummaries = true
	before = liveStates.Value()
	summarizedBefore := liveSummarized.Value()
	sumRep, err := RunCtx(context.Background(), summarized)
	if err != nil {
		t.Fatalf("summarized run: %v", err)
	}
	sumStates := liveStates.Value() - before

	if sumRep.SummarizedInjections == 0 {
		t.Fatalf("exhaustive campaign summarized nothing; dead registers at every site are summary-benign")
	}
	if got, want := liveSummarized.Value()-summarizedBefore, int64(sumRep.SummarizedInjections)-summarizedSites(sumRep); got != want {
		t.Errorf("live summarized counter = %d, want %d (report count %d minus one representative per site)",
			got, want, sumRep.SummarizedInjections)
	}
	if sumStates >= plainStates {
		t.Errorf("summarized run explored %d states, plain %d: summaries saved nothing", sumStates, plainStates)
	}
	if len(sumRep.PerInjection) != len(spec.Injections) {
		t.Fatalf("summarized run reported %d of %d injections: summaries must classify, not drop",
			len(sumRep.PerInjection), len(spec.Injections))
	}

	// Per-injection verdicts (and everything else) identical.
	stripSummaryMarkers(plain)
	stripSummaryMarkers(sumRep)
	plainJSON, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	sumJSON, err := json.Marshal(sumRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, sumJSON) {
		for i := range plain.PerInjection {
			a, b := plain.PerInjection[i], sumRep.PerInjection[i]
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if !bytes.Equal(aj, bj) {
				t.Errorf("first divergence at injection %d (%s):\nplain:      %s\nsummarized: %s", i, a.Injection, aj, bj)
				break
			}
		}
		t.Fatalf("summarized report differs from plain beyond the Summarized markers")
	}
}

// summarizedSites counts distinct breakpoints among the report's summarized
// injections: each contributes one representative exploration, so the live
// elision counter runs one short of the report's Summarized count per site.
func summarizedSites(rep *Report) int64 {
	sites := map[siteKey]bool{}
	for _, ir := range rep.PerInjection {
		if ir.Summarized {
			sites[site(ir.Injection)] = true
		}
	}
	return int64(len(sites))
}

// TestPruneParallelDeterminism checks the racing-representative case: with a
// worker pool, whichever benign injection reaches a site first becomes the
// representative, and the merged report must still be byte-identical to the
// sequential summarized run's.
func TestPruneParallelDeterminism(t *testing.T) {
	spec := tcasExhaustiveSpec(3 * int(isa.NumRegs-1))
	spec.UseSummaries = true
	assertParallelMatchesSequential(t, "tcas-summarized", spec)
}

// TestPruneReuseBudgetGuard pins the reuse conditions under a changing
// budget: a memo that completed within budget is reusable under any budget
// at least that large, and a budget-exhausted memo only under the exact
// budget it ran with.
func TestPruneReuseBudgetGuard(t *testing.T) {
	sites := newSiteMemo()
	inj := faults.Injection{Class: faults.ClassRegister, PC: 3, Loc: isa.RegLoc(7)}

	clean := InjectionReport{Injection: inj, Activated: true, StatesExplored: 500}
	sites.store(inj, clean, 1500)
	if _, ok := sites.reuse(inj, 1500); !ok {
		t.Errorf("clean memo not reused under its own budget")
	}
	if _, ok := sites.reuse(inj, 400); ok {
		t.Errorf("memo using 500 states reused under a 400-state budget")
	}

	inj2 := faults.Injection{Class: faults.ClassRegister, PC: 4, Loc: isa.RegLoc(7)}
	blown := InjectionReport{Injection: inj2, Activated: true, StatesExplored: 1500, BudgetExhausted: true}
	sites.store(inj2, blown, 1500)
	if _, ok := sites.reuse(inj2, 1500); !ok {
		t.Errorf("budget-exhausted memo not reused under the same budget")
	}
	if _, ok := sites.reuse(inj2, 2000); ok {
		t.Errorf("budget-exhausted memo reused under a larger budget: the exploration would differ")
	}

	inj3 := faults.Injection{Class: faults.ClassRegister, PC: 5, Loc: isa.RegLoc(7)}
	found := InjectionReport{Injection: inj3, Activated: true, Findings: []Finding{{Injection: inj3}}}
	sites.store(inj3, found, 1500)
	if _, ok := sites.reuse(inj3, 1500); ok {
		t.Errorf("memo with findings reused: findings name the injected location and cannot be rewritten")
	}
}

// TestSummariesCoverLiveness pins that compositional summaries subsume the
// per-site liveness proof on the exhaustive register space: every transient
// register injection into a register analysis.DeadAt proves dead at the
// breakpoint is SummaryContext.Benign (a callee's summary kills taint the
// callee overwrites on every path, so a dead register stays dead across a
// call). The benign counts are pinned too; a change to the summary rules
// moves them, so update them only with an explanation of what moved.
//
// Outside -short mode each program's whole exhaustive space is then swept
// with summaries and the SYMPLFIED_CHECK_SUMMARIES shadow check armed:
// every reused report is re-explored for real and any divergence panics.
func TestSummariesCoverLiveness(t *testing.T) {
	for _, tc := range []struct {
		app                goldenApp
		injections, benign int
	}{
		{goldenApp{"factorial", factorial.Plain(), []int64{5}, 400}, 372, 349},
		{goldenApp{"tcas", tcas.Program(), tcas.UpwardInput().Slice(), 2_000}, 4681, 4399},
		{goldenApp{"replace", replace.Program(), replace.Input("[a-c]x*", "<&>", "axx b cx"), 4_000}, 19406, 17141},
	} {
		t.Run(tc.app.name, func(t *testing.T) {
			prog := tc.app.prog
			live := analysis.Analyze(prog, nil)
			sums := NewSummaryContext(prog, nil, nil)
			injections := faults.RegisterInjections(prog, false)
			var dead, benign, gap int
			for _, inj := range injections {
				d, b := live.DeadAt(inj.PC, inj.Loc.Reg), sums.Benign(inj)
				if d {
					dead++
				}
				if b {
					benign++
				}
				if d && !b {
					if gap == 0 {
						t.Errorf("%s: register dead at the breakpoint but not summary-benign", inj)
					}
					gap++
				}
				perm := inj
				perm.Permanent = true
				if sums.Benign(perm) {
					t.Fatalf("%s: permanent fault classified benign: stuck-at faults survive the overwrite", perm)
				}
			}
			if sums.Benign(faults.Injection{Class: faults.ClassMemory, PC: 0, Loc: isa.MemLoc(8)}) {
				t.Errorf("memory injection classified benign")
			}
			var none *SummaryContext
			if none.Benign(injections[0]) {
				t.Errorf("nil context classified an injection benign")
			}
			t.Logf("%d injections, %d dead, %d summary-benign", len(injections), dead, benign)
			if gap != 0 {
				t.Errorf("%d dead-register injections not summary-benign, want 0", gap)
			}
			if len(injections) != tc.injections || benign != tc.benign {
				t.Errorf("got %d injections / %d summary-benign, want %d / %d",
					len(injections), benign, tc.injections, tc.benign)
			}

			if testing.Short() {
				return
			}
			defer SetCheckSummaries(true)()
			ref := machine.New(prog, tc.app.input, machine.Options{Watchdog: tc.app.watchdog})
			expected := machine.RenderOutput(ref.Run().Output)
			exec := symexec.DefaultOptions()
			exec.Watchdog = tc.app.watchdog
			rep, err := Run(Spec{
				Program:    prog,
				Input:      tc.app.input,
				Injections: injections,
				Exec:       exec,
				Predicate: Predicate{Name: "not-golden", Match: func(s *symexec.State) bool {
					return s.Outcome() != symexec.OutcomeNormal || s.OutputString() != expected
				}},
				MaxFindings:   1,
				StateBudget:   3_000,
				DiscardStates: true,
				UseSummaries:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.SummarizedInjections != tc.benign {
				t.Errorf("shadow-checked sweep summarized %d injections, want %d", rep.SummarizedInjections, tc.benign)
			}
		})
	}
}
