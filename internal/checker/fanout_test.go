package checker

import (
	"context"
	"strings"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symexec"
	"symplfied/internal/trace"
)

// fanoutSweep is one register sweep TestControlFanoutMatchesStepwise runs.
type fanoutSweep struct {
	name     string
	prog     *isa.Program
	dets     *detector.Table
	input    []int64
	watchdog int
	budget   int
	pred     Predicate
	injs     []faults.Injection
}

func fanoutSweeps(t *testing.T) []fanoutSweep {
	t.Helper()
	golden := func(prog *isa.Program, dets *detector.Table, input []int64) string {
		res := machine.New(prog, input, machine.Options{Detectors: dets}).Run()
		if res.Status != machine.StatusHalted {
			t.Fatalf("%s: fault-free run %v", prog.Name, res.Status)
		}
		return machine.RenderOutput(res.Output)
	}
	hard, hardDets := tcas.Hardened()
	rep := replace.Program()
	repIn := replace.Input("[a-c]x*", "<&>", "axx b cx")
	// replace's full sweep runs hundreds of injections to its budget
	// stepwise; every fifth one still reaches jr fan-outs (the test checks).
	var repInjs []faults.Injection
	for i, inj := range faults.RegisterInjectionsUsed(rep) {
		if i%5 == 0 {
			repInjs = append(repInjs, inj)
		}
	}
	fact := factorial.Plain()
	return []fanoutSweep{
		{"tcas", tcas.Program(), nil, tcas.UpwardInput().Slice(), 2_000, 20_000,
			HaltedOutputOtherThan(tcas.UpwardRA), faults.RegisterInjectionsUsed(tcas.Program())},
		// The hardened tcas: jr targets land on and run into its CHECKs.
		{"tcas-hardened", hard, hardDets, tcas.UpwardInput().Slice(), 2_000, 20_000,
			HaltedOutputOtherThan(tcas.UpwardRA), faults.RegisterInjectionsUsed(hard)},
		{"replace", rep, nil, repIn, 2_000, 3_000,
			IncorrectOutput(golden(rep, nil, repIn)), repInjs},
		{"factorial", fact, nil, []int64{5}, 400, 5_000,
			IncorrectOutput(golden(fact, nil, []int64{5})), faults.RegisterInjectionsUsed(fact)},
	}
}

// readsSymAndTrace is a custom predicate, so the explorer must build every
// terminal before it asks: it matches halted states whose store constrains a
// root and whose trace holds a control transfer, which a scratch child's
// empty store and trace never show.
var readsSymAndTrace = Predicate{
	Name: "halted after a control transfer, with a constrained root",
	Match: func(s *symexec.State) bool {
		if s.Outcome() != symexec.OutcomeNormal || !strings.Contains(s.Sym.Describe(), "e#") {
			return false
		}
		for _, ev := range s.Trace.Events() {
			if ev.Kind == trace.KindControl {
				return true
			}
		}
		return false
	},
}

// TestControlFanoutMatchesStepwise: register sweeps of tcas, the hardened
// tcas (whose jr targets reach CHECKs), replace and factorial give, injection
// for injection, the InjectionReport JSON of exploreStepwise, which builds
// every control fan-out eagerly through Successors: findings with their
// traces and states, outcome and detector tallies, MaxFrontier, and the fork
// and prune tallies. It holds with DiscardStates off and on, under a custom
// predicate that reads Sym and Trace, with Dedup on, and with
// MaxControlTargets 5, the last two keeping the eager fan-out. The default
// spec runs targets in place, and the hardened sweep materializes some at a
// CHECK.
func TestControlFanoutMatchesStepwise(t *testing.T) {
	variants := []struct {
		name  string
		apply func(*Spec)
		eager bool
	}{
		{"default", func(*Spec) {}, false},
		{"discard-states", func(s *Spec) { s.DiscardStates = true }, false},
		{"custom-predicate", func(s *Spec) { s.Predicate = readsSymAndTrace }, false},
		{"dedup", func(s *Spec) { s.Dedup = true }, true},
		{"max-control-targets-5", func(s *Spec) { s.Exec.MaxControlTargets = 5 }, true},
	}
	for _, sw := range fanoutSweeps(t) {
		for _, v := range variants {
			t.Run(sw.name+"/"+v.name, func(t *testing.T) {
				exec := symexec.DefaultOptions()
				exec.Watchdog = sw.watchdog
				spec := Spec{Program: sw.prog, Detectors: sw.dets, Input: sw.input, Exec: exec,
					Predicate: sw.pred, StateBudget: sw.budget}
				v.apply(&spec)
				inPlace, built := liveTargetsInPlace.Value(), liveTargetsMaterialized.Value()
				var fanouts, detected int64
				for _, inj := range sw.injs {
					ir := exploreBoth(t, spec, inj)
					fanouts += ir.Exec.ForksControl
					if ir.Exec.ForksControl > 0 {
						detected += int64(ir.Outcomes[symexec.OutcomeDetected])
					}
				}
				inPlace, built = liveTargetsInPlace.Value()-inPlace, liveTargetsMaterialized.Value()-built
				switch {
				case v.eager && inPlace+built != 0:
					t.Errorf("the eager fan-out ran %d targets in place and built %d through the cursor", inPlace, built)
				case sw.name == "factorial":
					// No jr: the sweep checks the rest of the explorer.
				case fanouts == 0:
					t.Errorf("no control fan-out in the sweep")
				case !v.eager && v.name != "custom-predicate" && inPlace == 0:
					t.Errorf("%d control forks, none run in place (%d built)", fanouts, built)
				case v.name == "custom-predicate" && inPlace != 0:
					t.Errorf("a custom predicate saw %d unbuilt targets", inPlace)
				case sw.dets != nil && !v.eager && detected == 0:
					t.Errorf("no fan-out target ran into a CHECK that fired")
				}
			})
		}
	}
}

// TestControlTargetsCounter: a plain tcas sweep moves both paths of the live
// symplfied_control_targets_total counter, and runs most targets in place.
func TestControlTargetsCounter(t *testing.T) {
	prog := tcas.Program()
	exec := symexec.DefaultOptions()
	exec.Watchdog = 2_000
	inPlace, built := liveTargetsInPlace.Value(), liveTargetsMaterialized.Value()
	_, err := Run(Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  faults.RegisterInjectionsUsed(prog),
		Exec:        exec,
		Predicate:   HaltedOutputOtherThan(tcas.UpwardRA),
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inPlace, built = liveTargetsInPlace.Value()-inPlace, liveTargetsMaterialized.Value()-built
	if built == 0 || inPlace <= 4*built {
		t.Errorf("%d targets in place, %d built: want both, in place dominating", inPlace, built)
	}
	t.Logf("%d targets in place, %d built", inPlace, built)
}

// TestControlFanoutAllocsPerTarget: exploring the paper's catastrophic tcas
// injection, err in $31 at Non_Crossing_Biased_Climb's return, allocates
// less than once per fan-out target when no target is kept, everything else
// the exploration allocates included: a target that terminates unkept runs
// in the scratch state and allocates nothing of its own, bar an exception
// detail naming an address.
func TestControlFanoutAllocsPerTarget(t *testing.T) {
	prog := tcas.Program()
	jrPC, err := tcas.ReturnJrPC(prog, "Non_Crossing_Biased_Climb")
	if err != nil {
		t.Fatal(err)
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4_000
	// No detector fires in the plain program, so nothing is kept.
	spec := Spec{Program: prog, Input: tcas.UpwardInput().Slice(), Exec: exec,
		Predicate: OutcomeIs(symexec.OutcomeDetected), StateBudget: 1_000_000}
	inj := regInj(jrPC, isa.RegRA)
	explore := func() InjectionReport {
		ir := InjectionReport{Injection: inj, Outcomes: make(map[symexec.Outcome]int)}
		if err := exploreInjection(context.Background(), spec, inj, &ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}
	inPlace := liveTargetsInPlace.Value()
	ir := explore()
	targets := ir.Exec.ForksControl + 1
	if inPlace = liveTargetsInPlace.Value() - inPlace; ir.BudgetExhausted || targets < 100 || inPlace != targets-1 {
		t.Fatalf("%d targets, %d of them in place (budget exhausted %v): want all but the invalid-address one",
			targets, inPlace, ir.BudgetExhausted)
	}
	allocs := testing.AllocsPerRun(20, func() { explore() })
	perTarget := allocs / float64(targets)
	t.Logf("%d targets, %.0f allocs, %.2f per target", targets, allocs, perTarget)
	if perTarget >= 1 {
		t.Errorf("%.2f allocs per unkept target, want under 1", perTarget)
	}
}
