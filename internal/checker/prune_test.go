package checker

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// tcasExhaustiveSpec builds the acceptance-criteria campaign: the exhaustive
// (sources=false) register space — every architectural register at every
// instruction, the 800x32 shape the paper's Section 6.1 prunes — restricted
// to the first maxInjections entries to keep the test fast. The slice is
// pc-major, so a prefix still covers whole sites (every register at each
// included pc), which is what pruning needs to show its savings.
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

// stripPruneMarkers clears the fields a pruned run legitimately adds, so the
// rest of the report can be compared byte-for-byte against an unpruned run.
func stripPruneMarkers(rep *Report) {
	rep.Spec = nil
	rep.PrunedInjections = 0
	for i := range rep.PerInjection {
		rep.PerInjection[i].Pruned = false
	}
}

// TestPruneDeadInjectionsTcasExhaustive is the acceptance-criteria test:
// on an exhaustive tcas register campaign, -prune-dead explores strictly
// fewer injections (measured by the live state counter — the report tallies
// are deliberately identical) while producing the identical per-injection
// verdict set. The check is stronger than verdict identity: after removing
// the Pruned markers, the two reports are byte-identical as JSON — every
// outcome tally, finding, and exec stat matches.
func TestPruneDeadInjectionsTcasExhaustive(t *testing.T) {
	spec := tcasExhaustiveSpec(4 * int(isa.NumRegs-1)) // four whole sites
	spec.Parallelism = 1

	before := liveStates.Value()
	plain, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("unpruned run: %v", err)
	}
	plainStates := liveStates.Value() - before

	pruned := spec
	pruned.PruneDeadInjections = true
	before = liveStates.Value()
	prunedBefore := livePruned.Value()
	prunedRep, err := RunCtx(context.Background(), pruned)
	if err != nil {
		t.Fatalf("pruned run: %v", err)
	}
	prunedStates := liveStates.Value() - before

	if prunedRep.PrunedInjections == 0 {
		t.Fatalf("exhaustive campaign pruned nothing; liveness should find dead registers at every site")
	}
	if got := livePruned.Value() - prunedBefore; got != int64(prunedRep.PrunedInjections)-prunedSites(prunedRep) {
		t.Errorf("live pruned counter = %d, want %d (report count %d minus one representative per site)",
			got, int64(prunedRep.PrunedInjections)-prunedSites(prunedRep), prunedRep.PrunedInjections)
	}
	if prunedStates >= plainStates {
		t.Errorf("pruned run explored %d states, unpruned %d: pruning saved nothing", prunedStates, plainStates)
	}
	if len(prunedRep.PerInjection) != len(spec.Injections) {
		t.Fatalf("pruned run reported %d of %d injections: pruning must classify, not drop",
			len(prunedRep.PerInjection), len(spec.Injections))
	}

	// Per-injection verdicts (and everything else) identical.
	stripPruneMarkers(plain)
	stripPruneMarkers(prunedRep)
	plainJSON, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	prunedJSON, err := json.Marshal(prunedRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, prunedJSON) {
		for i := range plain.PerInjection {
			a, b := plain.PerInjection[i], prunedRep.PerInjection[i]
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if !bytes.Equal(aj, bj) {
				t.Errorf("first divergence at injection %d (%s):\nunpruned: %s\npruned:   %s", i, a.Injection, aj, bj)
				break
			}
		}
		t.Fatalf("pruned report differs from unpruned beyond the Pruned markers")
	}
}

// prunedSites counts distinct breakpoints among the report's pruned
// injections: each contributes one representative exploration, so the live
// elision counter runs one short of the report's Pruned count per site.
func prunedSites(rep *Report) int64 {
	sites := map[pruneSite]bool{}
	for _, ir := range rep.PerInjection {
		if ir.Pruned {
			sites[site(ir.Injection)] = true
		}
	}
	return int64(len(sites))
}

// TestPruneParallelDeterminism checks the racing-representative case: with a
// worker pool, whichever dead injection reaches a site first becomes the
// representative, and the merged report must still be byte-identical to the
// sequential pruned run's.
func TestPruneParallelDeterminism(t *testing.T) {
	spec := tcasExhaustiveSpec(3 * int(isa.NumRegs-1))
	spec.PruneDeadInjections = true
	assertParallelMatchesSequential(t, "tcas-pruned", spec)
}

// TestPruneCrossCheck runs a pruned campaign with the SYMPLFIED_CHECK_PRUNING
// assertion armed: every reused report is re-derived by a real exploration
// and any divergence panics. Surviving the run discharges the liveness
// proof obligation on this campaign.
func TestPruneCrossCheck(t *testing.T) {
	old := checkPruning
	checkPruning = true
	defer func() { checkPruning = old }()

	spec := tcasExhaustiveSpec(2 * int(isa.NumRegs-1))
	spec.PruneDeadInjections = true
	spec.Parallelism = 1
	rep, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("cross-checked pruned run: %v", err)
	}
	if rep.PrunedInjections == 0 {
		t.Fatalf("cross-check exercised nothing: no injections were pruned")
	}
}

// TestPrunableClassification pins what the liveness proof is allowed to
// touch: transient register errors into dead registers only — never memory,
// never permanent faults, never a live register.
func TestPrunableClassification(t *testing.T) {
	prog := tcas.Program()
	p := NewPruneContext(prog, nil)

	// Find one dead and one live (pc, register) pair from the analysis
	// itself. Entry liveness may be empty on a clean program, so the live
	// pair is scanned across all pcs.
	var dead, live isa.Reg
	var livePC int
	for r := isa.Reg(1); r < isa.NumRegs && dead == 0; r++ {
		if p.Analysis().DeadAt(0, r) {
			dead = r
		}
	}
scan:
	for pc := 0; pc < prog.Len(); pc++ {
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if !p.Analysis().DeadAt(pc, r) {
				live, livePC = r, pc
				break scan
			}
		}
	}
	if dead == 0 || live == 0 {
		t.Fatalf("tcas should have both dead and live registers (dead=%v live=%v)", dead, live)
	}

	deadInj := faults.Injection{Class: faults.ClassRegister, PC: 0, Loc: isa.RegLoc(dead)}
	if !p.Prunable(deadInj) {
		t.Errorf("dead transient register injection not prunable")
	}
	if p.Prunable(faults.Injection{Class: faults.ClassRegister, PC: livePC, Loc: isa.RegLoc(live)}) {
		t.Errorf("live register injection wrongly prunable")
	}
	perm := deadInj
	perm.Permanent = true
	if p.Prunable(perm) {
		t.Errorf("permanent fault wrongly prunable: stuck-at faults survive the overwrite")
	}
	if p.Prunable(faults.Injection{Class: faults.ClassMemory, PC: 0, Loc: isa.MemLoc(8)}) {
		t.Errorf("memory injection wrongly prunable")
	}
	var nilCtx *PruneContext
	if nilCtx.Prunable(deadInj) {
		t.Errorf("nil context must prune nothing")
	}
}

// TestPruneReuseBudgetGuard pins the reuse conditions under a changing
// budget: a memo that completed within budget is reusable under any budget
// at least that large, and a budget-exhausted memo only under the exact
// budget it ran with.
func TestPruneReuseBudgetGuard(t *testing.T) {
	p := NewPruneContext(tcas.Program(), nil)
	inj := faults.Injection{Class: faults.ClassRegister, PC: 3, Loc: isa.RegLoc(7)}

	clean := InjectionReport{Injection: inj, Activated: true, StatesExplored: 500}
	p.sites.store(inj, clean, 1500)
	if _, ok := p.sites.reuse(inj, 1500); !ok {
		t.Errorf("clean memo not reused under its own budget")
	}
	if _, ok := p.sites.reuse(inj, 400); ok {
		t.Errorf("memo using 500 states reused under a 400-state budget")
	}

	inj2 := faults.Injection{Class: faults.ClassRegister, PC: 4, Loc: isa.RegLoc(7)}
	blown := InjectionReport{Injection: inj2, Activated: true, StatesExplored: 1500, BudgetExhausted: true}
	p.sites.store(inj2, blown, 1500)
	if _, ok := p.sites.reuse(inj2, 1500); !ok {
		t.Errorf("budget-exhausted memo not reused under the same budget")
	}
	if _, ok := p.sites.reuse(inj2, 2000); ok {
		t.Errorf("budget-exhausted memo reused under a larger budget: the exploration would differ")
	}

	inj3 := faults.Injection{Class: faults.ClassRegister, PC: 5, Loc: isa.RegLoc(7)}
	found := InjectionReport{Injection: inj3, Activated: true, Findings: []Finding{{Injection: inj3}}}
	p.sites.store(inj3, found, 1500)
	if _, ok := p.sites.reuse(inj3, 1500); ok {
		t.Errorf("memo with findings reused: findings name the injected location and cannot be rewritten")
	}
}

// TestPruneSummaryGap pins how far compositional summaries fall short of
// covering liveness pruning on the exhaustive register space: per program,
// how many injections PruneContext.Prunable proves benign, how many
// SummaryContext.Benign proves benign, and how many the liveness proof
// covers that the summaries do not. The gap is why pruning cannot yet be
// deleted in favour of summaries. A change to either classifier moves these
// counts; update them only with an explanation of what moved.
func TestPruneSummaryGap(t *testing.T) {
	for _, tc := range []struct {
		name                              string
		prog                              *isa.Program
		injections, prunable, benign, gap int
	}{
		{"factorial", factorial.Plain(), 372, 349, 349, 0},
		{"tcas", tcas.Program(), 4681, 3975, 4321, 78},
		{"replace", replace.Program(), 19406, 12631, 16821, 214},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prune := NewPruneContext(tc.prog, nil)
			sums := NewSummaryContext(tc.prog, nil, nil)
			injections := faults.RegisterInjections(tc.prog, false)
			var prunable, benign, gap int
			var first *faults.Injection
			for i, inj := range injections {
				p, b := prune.Prunable(inj), sums.Benign(inj)
				if p {
					prunable++
				}
				if b {
					benign++
				}
				if p && !b {
					gap++
					if first == nil {
						first = &injections[i]
					}
				}
			}
			t.Logf("%d injections, %d prunable, %d summary-benign, %d prunable but not summary-benign (first: %v)",
				len(injections), prunable, benign, gap, first)
			if len(injections) != tc.injections || prunable != tc.prunable || benign != tc.benign {
				t.Errorf("got %d injections / %d prunable / %d summary-benign, want %d / %d / %d",
					len(injections), prunable, benign, tc.injections, tc.prunable, tc.benign)
			}
			if gap != tc.gap {
				t.Errorf("%d injections prunable but not summary-benign, want %d", gap, tc.gap)
			}
		})
	}
}
