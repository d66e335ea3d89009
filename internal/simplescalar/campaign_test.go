package simplescalar

import (
	"context"
	"reflect"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
)

// referenceReport is the campaign RunResilient must report: every injection
// of cfg run from scratch by referenceTrial and classified, a panicking
// classifier isolated into LabelPanic.
func referenceReport(cfg Config) *Report {
	rep := &Report{Counts: map[string]int{}, Examples: map[string]Injection{}}
	for _, inj := range Enumerate(cfg) {
		label := classifySafely(cfg.Classify, referenceTrial(cfg, inj).Result)
		rep.Counts[label]++
		rep.Total++
		if _, seen := rep.Examples[label]; !seen {
			rep.Examples[label] = inj
		}
	}
	return rep
}

// referenceHits classifies every injection of cfg by the masking proof
// that applies to it, deciding each from scratch: fresh machines run to the
// point, and the injected one is compared with the fault-free one after one
// step.
func referenceHits(cfg Config) (hits [numShortcuts]int) {
	opts := machine.Options{Watchdog: cfg.Watchdog, Detectors: cfg.Detectors}
	for _, inj := range Enumerate(cfg) {
		m := machine.New(cfg.Program, cfg.Input, opts)
		switch {
		case !m.RunUntil(inj.Point.PC, 1) || m.Steps() >= m.Watchdog():
			hits[unreached]++
		case inj.Point.Reg == isa.RegZero || m.Reg(inj.Point.Reg) == isa.Int(inj.Value):
			hits[sameValue]++
		default:
			var faultFree machine.Machine
			faultFree.Restore(m)
			faultFree.Step()
			m.SetReg(inj.Point.Reg, isa.Int(inj.Value))
			m.Step()
			if m.SameConfig(&faultFree) {
				hits[converged]++
			} else {
				hits[ran]++
			}
		}
	}
	return hits
}

// panicOnFaultFree wraps classify so that it panics on the fault-free result
// of cfg, and only on results equal to it: still a pure function of the
// result.
func panicOnFaultFree(cfg Config, classify Classifier) Classifier {
	m := machine.New(cfg.Program, cfg.Input, machine.Options{Watchdog: cfg.Watchdog, Detectors: cfg.Detectors})
	golden := m.Run()
	return func(res machine.Result) string {
		if reflect.DeepEqual(res, golden) {
			panic("fault-free result")
		}
		return classify(res)
	}
}

// answeredCounts reads the live counter of each shortcut.
func answeredCounts() (n [numShortcuts]int64) {
	for s := unreached; s < numShortcuts; s++ {
		n[s] = liveAnswered[s].Value()
	}
	return n
}

// TestCampaignMatchesReference: on tcas (an input that resolves upward and a
// disabled one, whose run skips most of the program), replace and factorial
// with its detectors, RunResilient's totals, tallies and examples equal a
// campaign that runs every injection from scratch — also under a classifier
// that panics on the fault-free result, whose every masked trial must land
// in LabelPanic. Each masking proof answers exactly the trials it holds for,
// decided from scratch, on tcas every proof answers some, and the live
// counter moves by exactly the trials each answered.
func TestCampaignMatchesReference(t *testing.T) {
	disabled := tcas.UpwardInput()
	disabled.HighConfidence = 0
	facProg, facDets := factorial.WithDetectors()
	cases := []struct {
		name string
		cfg  Config
		tcas bool
	}{
		{"tcas-upward", Config{Program: tcas.Program(), Input: tcas.UpwardInput().Slice(), Watchdog: 50_000,
			Classify: SingleValueClassifier(0, 1, 2), Seed: 7, RandomPerReg: 6}, true},
		{"tcas-disabled", Config{Program: tcas.Program(), Input: disabled.Slice(), Watchdog: 50_000,
			Classify: SingleValueClassifier(0, 1, 2), Seed: 7, RandomPerReg: 6}, true},
		{"replace", Config{Program: replace.Program(), Input: replace.Input("[a-c]x*", "<&>", "zabxxc q"),
			Watchdog: 200_000, Classify: SingleValueClassifier(), Seed: 3, MaxInjections: 1200}, false},
		{"factorial", Config{Program: facProg, Detectors: facDets, Input: []int64{5}, Watchdog: 400,
			Classify: SingleValueClassifier(factorial.Oracle(5)), Seed: 2008, RandomPerReg: 10}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, panicky := range []bool{false, true} {
				cfg := c.cfg
				if panicky {
					cfg.Classify = panicOnFaultFree(cfg, cfg.Classify)
				}
				before := answeredCounts()
				rep, hits, err := runCampaign(context.Background(), cfg, Resilience{})
				if err != nil {
					t.Fatal(err)
				}
				after := answeredCounts()
				for s := unreached; s < numShortcuts; s++ {
					if got := after[s] - before[s]; got != int64(hits[s]) {
						t.Errorf("live counter %v moved by %d, campaign answered %d", s, got, hits[s])
					}
				}
				want := referenceReport(cfg)
				if rep.Total != want.Total || !reflect.DeepEqual(rep.Counts, want.Counts) ||
					!reflect.DeepEqual(rep.Examples, want.Examples) {
					t.Fatalf("panicky classifier %v: campaign\n%+v\nreference\n%+v", panicky, rep, want)
				}
				if want := referenceHits(cfg); hits[unreached] != want[unreached] ||
					hits[sameValue] != want[sameValue] || hits[converged] != want[converged] {
					t.Errorf("shortcut hits %v, reference %v", hits, want)
				}
				answered := hits[unreached] + hits[sameValue] + hits[converged]
				if panicky && rep.Counts[LabelPanic] < answered {
					t.Errorf("%d trials answered, only %d labelled %q", answered, rep.Counts[LabelPanic], LabelPanic)
				}
				if c.tcas {
					for s := unreached; s < numShortcuts; s++ {
						if hits[s] == 0 {
							t.Errorf("shortcut %v answered no trial (hits %v)", s, hits)
						}
					}
				}
				t.Logf("panicky %v: %d trials, answered %v", panicky, rep.Total, hits)
			}
		})
	}
}
