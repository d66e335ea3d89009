package crossval

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/tcas"
)

// tcasSmokeSpec is the seeded tcas cross-validation campaign CI runs: the
// paper's Section 6.2 subject, watchdog and state budget, with extremes plus
// seeded random values per site. Short mode trims the point count, not the
// methodology.
func tcasSmokeSpec(short bool) Spec {
	spec := Spec{
		Program:      tcas.Program(),
		Input:        tcas.UpwardInput().Slice(),
		Watchdog:     4_000,
		Seed:         2008,
		RandomPerReg: 3,
		StateBudget:  25_000,
	}
	if short {
		spec.MaxPoints = 24
		spec.RandomPerReg = 1
		spec.StateBudget = 10_000
	} else {
		spec.MaxPoints = 120
	}
	return spec
}

// TestCrossvalSmokeTCAS cross-validates the concrete injector against the
// symbolic engine on tcas and fails on any conclusive SymbolicMiss — a
// concrete corruption outcome the symbolic terminal set failed to cover is
// an unsoundness in the engine, never an acceptable abstraction artifact.
//
// When CROSSVAL_REPORT is set, the full mismatch report is written there so
// CI can upload it as an artifact (also on failure).
func TestCrossvalSmokeTCAS(t *testing.T) {
	spec := tcasSmokeSpec(testing.Short())
	rep, err := RunCtx(context.Background(), spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if path := os.Getenv("CROSSVAL_REPORT"); path != "" {
		b, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(path, append(b, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
	}
	t.Logf("crossval tcas: %s", rep.Summary())
	if !rep.Sound() {
		for _, m := range rep.Mismatches {
			if m.Class == SymbolicMiss && !m.Inconclusive {
				t.Errorf("SymbolicMiss: %+v (repro: %s)", m.Point, m.Repro)
			}
		}
		t.Fatal("symbolic engine missed concrete outcomes — see mismatches above")
	}
	if n := rep.ByClass[ClassDrift.String()]; n != 0 {
		t.Errorf("%d class-drift mismatches (crash/hang/detect label disagreement)", n)
	}
	if rep.Trials == 0 {
		t.Fatal("smoke sweep ran no trials")
	}
}

// TestCrossvalSmokeFactorial pins the seeded factorial cross-validation
// campaign (the CLI's -app factorial -crossval defaults): its erroneous
// paths loop toward the watchdog, minting a root per iteration, so it is
// the deep-path guard — the store's fork cost must not grow with the roots
// a path has minted. Every class-drift is on a point whose exploration ran
// out of budget, never a conclusive disagreement.
func TestCrossvalSmokeFactorial(t *testing.T) {
	rep, err := RunCtx(context.Background(), Spec{
		Program:      factorial.Plain(),
		Input:        []int64{5},
		Seed:         2008,
		RandomPerReg: 3,
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("crossval factorial: %s", rep.Summary())
	if !rep.Sound() {
		t.Fatal("symbolic engine missed concrete outcomes")
	}
	if rep.Points != 15 || rep.Trials != 90 || rep.Agreements != 70 || rep.InconclusivePoints != 6 {
		t.Errorf("points %d, trials %d, agreements %d, inconclusive points %d; want 15, 90, 70, 6",
			rep.Points, rep.Trials, rep.Agreements, rep.InconclusivePoints)
	}
	if len(rep.ByClass) != 1 || rep.ByClass[ClassDrift.String()] != 20 {
		t.Errorf("mismatches by class %v, want 20 class-drifts only", rep.ByClass)
	}
	for _, m := range rep.Mismatches {
		if !m.Inconclusive {
			t.Errorf("conclusive %s mismatch: %+v (repro: %s)", m.Class, m.Point, m.Repro)
		}
	}
}
