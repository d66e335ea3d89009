package checker

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/asm"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// anyTerminal matches every terminal state, maximizing the surface the
// merged-vs-unmerged findings comparison covers.
var anyTerminal = Predicate{Name: "any", Match: func(*symexec.State) bool { return true }}

// mergeSpec is the shared shape of the equivalence tests: no dedup and no
// findings cap, so the cross-check compares full canonical findings.
func mergeSpec(prog *isa.Program, input []int64, watchdog, budget int) Spec {
	exec := symexec.DefaultOptions()
	exec.Watchdog = watchdog
	return Spec{
		Program:     prog,
		Input:       input,
		Exec:        exec,
		Predicate:   anyTerminal,
		StateBudget: budget,
		Parallelism: 1,
	}
}

// TestMergedSweepMatchesUnmerged sweeps every used-register injection of the
// factorial program merged and unmerged and demands identical verdicts:
// same activation, terminal tallies, outcome tallies, truncation, and
// byte-identical canonical findings. The SYMPLFIED_CHECK_MERGING cross-check
// is armed throughout, so every injection is additionally shadow-verified
// inside the merged run itself.
func TestMergedSweepMatchesUnmerged(t *testing.T) {
	defer SetCheckMerging(true)()

	prog, dets := factorial.WithDetectors()
	spec := mergeSpec(prog, []int64{5}, 400, 50_000)
	spec.Detectors = dets
	spec.Injections = faults.RegisterInjectionsUsed(prog)

	plain := spec
	unmerged, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	spec.MergeStates = true
	merged, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	if merged.MergedInjections == 0 {
		t.Fatal("no injection was swept by the merged explorer")
	}
	if len(merged.PerInjection) != len(unmerged.PerInjection) {
		t.Fatalf("injection count drift: %d vs %d", len(merged.PerInjection), len(unmerged.PerInjection))
	}
	for i := range merged.PerInjection {
		m, u := merged.PerInjection[i], unmerged.PerInjection[i]
		if m.Activated != u.Activated || m.TerminalStates != u.TerminalStates ||
			m.Truncated != u.Truncated || m.BudgetExhausted != u.BudgetExhausted {
			t.Fatalf("%s: tally drift: merged %+v unmerged %+v", m.Injection, m, u)
		}
		for o, n := range u.Outcomes {
			if m.Outcomes[o] != n {
				t.Fatalf("%s: outcome %s drift: %d vs %d", m.Injection, o, m.Outcomes[o], n)
			}
		}
		mf, uf := CanonicalFindings(m.Findings), CanonicalFindings(u.Findings)
		if len(mf) != len(uf) {
			t.Fatalf("%s: findings count drift: %d vs %d", m.Injection, len(mf), len(uf))
		}
		for j := range mf {
			if mf[j] != uf[j] {
				t.Fatalf("%s: finding drift:\nmerged:   %s\nunmerged: %s", m.Injection, mf[j], uf[j])
			}
		}
	}
	if merged.Verdict() != unmerged.Verdict() {
		t.Fatalf("verdict drift: %s vs %s", merged.Verdict(), unmerged.Verdict())
	}
	if merged.TotalStates >= unmerged.TotalStates {
		t.Errorf("merging explored %d states, unmerged %d: no savings", merged.TotalStates, unmerged.TotalStates)
	}
	if merged.Exec.StatesMerged == 0 {
		t.Error("no state observations elided by shared stepping")
	}
	// Factorial's hangs fork at the symbolic loop branch every lap, so no
	// in-place run recurs exactly; cycle acceleration is asserted on tcas
	// (TestMergeSmokeTCAS), whose concrete erroneous loops do recur.
	t.Logf("states: %d merged vs %d unmerged (%.1fx); merged-elided=%d cycles=%d steps-elided=%d",
		merged.TotalStates, unmerged.TotalStates,
		float64(unmerged.TotalStates)/float64(merged.TotalStates),
		merged.Exec.StatesMerged, merged.Exec.CyclesAccelerated, merged.Exec.StepsElided)
}

// FuzzMergeEquivalence throws randomly generated programs at the merged
// explorer with the cross-check armed: every injection it sweeps is
// re-explored unmerged inside the run, and any drift in activation, terminal
// tallies, outcomes, truncation, or canonical findings panics. The generator
// mirrors the asm/analysis fuzzers' instruction-level corpus so branches,
// loops, dynamic jumps, loads/stores and reads all appear.
func FuzzMergeEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog := randomProgram(rand.New(rand.NewSource(seed)))
		injections := faults.RegisterInjectionsUsed(prog)
		if len(injections) > 8 {
			injections = injections[:8]
		}
		if len(injections) == 0 {
			return
		}
		defer SetCheckMerging(true)()
		spec := mergeSpec(prog, []int64{3, 7, 11}, 250, 6_000)
		spec.Injections = injections
		spec.MergeStates = true
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
	})
}

// randomProgram builds a random valid program the same way the asm and
// analysis fuzzers do, halting at the end so every path can terminate.
func randomProgram(r *rand.Rand) *isa.Program {
	n := 3 + r.Intn(30)
	instrs := make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		instrs = append(instrs, randomInstr(r, n+1))
	}
	instrs = append(instrs, isa.Instr{Op: isa.OpHalt})
	labels := map[string]int{}
	for k := r.Intn(4); k > 0; k-- {
		labels["L"+strconv.Itoa(r.Intn(100))] = r.Intn(n + 1)
	}
	prog, err := isa.NewProgram("fuzz", instrs, labels)
	if err != nil {
		prog, _ = isa.NewProgram("fuzz", []isa.Instr{{Op: isa.OpHalt}}, nil)
	}
	return prog
}

// randomInstr mirrors the generator in internal/asm's fuzz round-trip test:
// one random instruction of any renderable format, branch targets within
// [0, progLen).
func randomInstr(r *rand.Rand, progLen int) isa.Instr {
	ops := isa.Ops()
	for {
		op := ops[r.Intn(len(ops))]
		in := isa.Instr{Op: op}
		reg := func() isa.Reg { return isa.Reg(r.Intn(isa.NumRegs)) }
		imm := func() int64 { return int64(r.Intn(2001) - 1000) }
		switch op.Format() {
		case isa.FormatNone:
			if op == isa.OpHalt {
				continue // emitted explicitly at the end
			}
		case isa.FormatR3:
			in.Rd, in.Rs, in.Rt = reg(), reg(), reg()
		case isa.FormatR2I:
			in.Rd, in.Rs, in.Imm = reg(), reg(), imm()
		case isa.FormatR2:
			in.Rd, in.Rs = reg(), reg()
		case isa.FormatRI:
			in.Rd, in.Imm = reg(), imm()
		case isa.FormatMem:
			in.Rt, in.Rs, in.Imm = reg(), reg(), imm()
		case isa.FormatBranch:
			in.Rs, in.Rt, in.Target = reg(), reg(), r.Intn(progLen)
		case isa.FormatBranchI:
			in.Rs, in.Imm, in.Target = reg(), imm(), r.Intn(progLen)
		case isa.FormatJump:
			in.Target = r.Intn(progLen)
		case isa.FormatJumpR:
			in.Rs = reg()
		case isa.FormatR1:
			in.Rd = reg()
		case isa.FormatStr:
			n := r.Intn(8)
			s := make([]byte, 0, n)
			alphabet := `abc "\-;/()#$*123 	`
			for i := 0; i < n; i++ {
				s = append(s, alphabet[r.Intn(len(alphabet))])
			}
			in.Str = string(s)
		case isa.FormatCheck:
			in.Imm = int64(r.Intn(10))
		}
		return in
	}
}

// TestMergedAffineMemoryCounter: a lap that counts in memory while a
// register counts along is not affine, since the proof covers registers
// only. The merged explorer must run it to the exit, as the plain explorer
// does, not extrapolate the register past a frozen memory counter into a
// hang. Prefixes of one to four instructions place the first checkpoint at
// different pcs of the loop.
func TestMergedAffineMemoryCounter(t *testing.T) {
	for pre := 1; pre <= 4; pre++ {
		src := "\tst $0 20($0)\n" + strings.Repeat("\tnop\n", pre-1) +
			"loop:\tld $4 20($0)\n\taddi $4 $4 1\n\tst $4 20($0)\n\tbeqi $4 150 out\n\tli $4 0\n\taddi $1 $1 1\n\tjmp loop\nout:\tprint $1\n\thalt\n"
		spec := mergeSpec(asm.MustParse("memcount", src).Program, nil, 2_000, 100_000)
		spec.Injections = []faults.Injection{regInj(0, 7)}
		plain, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.MergeStates = true
		merged, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, m := plain.PerInjection[0], merged.PerInjection[0]
		if p.Outcomes[symexec.OutcomeNormal] != 1 || !reflect.DeepEqual(m.Outcomes, p.Outcomes) ||
			!reflect.DeepEqual(CanonicalFindings(m.Findings), CanonicalFindings(p.Findings)) {
			t.Errorf("prefix %d: merged %v %v, plain %v %v", pre, m.Outcomes, CanonicalFindings(m.Findings), p.Outcomes, CanonicalFindings(p.Findings))
		}
	}
}
