package symexec

import (
	"fmt"
	"math/rand"
	"testing"

	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
)

// randomProgram generates a terminating fault-free program: straight-line
// arithmetic/memory/compare instructions with forward-only branches, a
// memory-initialization prologue, and a final halt. Registers $1..$9 are
// used; memory slots 100..107 are initialized before any load.
func randomProgram(r *rand.Rand, n int) (*isa.Program, *detector.Table) {
	b := isa.NewBuilder("fuzz")

	// Random detectors: checks over the fuzz registers against constants.
	// Clean evaluation never forks (concrete operands), but detections are
	// legitimate terminal outcomes for both engines.
	dets := detector.EmptyTable()
	nDets := r.Intn(3)
	cmps := []string{"==", "=/=", ">", "<", ">=", "<="}
	for i := 0; i < nDets; i++ {
		spec := fmt.Sprintf("det(%d, $%d, %s, %d)",
			i+1, 1+r.Intn(9), cmps[r.Intn(len(cmps))], r.Intn(41)-20)
		d, err := detector.Parse(spec)
		if err != nil {
			panic(err)
		}
		if err := dets.Add(d); err != nil {
			panic(err)
		}
	}
	// Prologue: define the memory slots and seed the registers.
	for slot := int64(0); slot < 8; slot++ {
		b.Li(1, r.Int63n(100)-50)
		b.St(1, 100+slot, isa.RegZero)
	}
	for reg := isa.Reg(1); reg <= 9; reg++ {
		b.Li(reg, r.Int63n(41)-20)
	}

	reg := func() isa.Reg { return isa.Reg(1 + r.Intn(9)) }
	slot := func() int64 { return 100 + r.Int63n(8) }

	type pendingBranch struct {
		at    int
		label string
	}
	var pending []pendingBranch

	arithOps := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMult, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpAddi, isa.OpSubi, isa.OpMulti, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpSeteq, isa.OpSetne, isa.OpSetgt, isa.OpSetlt, isa.OpSetge, isa.OpSetle,
	}

	for i := 0; i < n; i++ {
		// Resolve any branch that targeted this point.
		for len(pending) > 0 && pending[0].at == b.Len() {
			b.Label(pending[0].label)
			pending = pending[1:]
		}
		switch k := r.Intn(10); {
		case k < 5: // arithmetic / compare
			op := arithOps[r.Intn(len(arithOps))]
			in := isa.Instr{Op: op, Rd: reg(), Rs: reg()}
			if op.Format() == isa.FormatR2I {
				in.Imm = r.Int63n(21) - 10
				if in.Imm == 0 && (op == isa.OpDivi || op == isa.OpModi) {
					in.Imm = 1
				}
			} else {
				in.Rt = reg()
			}
			b.Emit(in)
		case k < 6: // store
			b.St(reg(), slot(), isa.RegZero)
		case k < 7: // load
			b.Ld(reg(), slot(), isa.RegZero)
		case k < 8: // print
			b.Print(reg())
		case k < 9: // mov, or a detector check when any exist
			if nDets > 0 && r.Intn(3) == 0 {
				b.Check(int64(1 + r.Intn(nDets)))
			} else {
				b.Mov(reg(), reg())
			}
		default: // forward branch over a random distance
			dist := 2 + r.Intn(5)
			label := "fwd" + itoa(b.Len())
			if r.Intn(2) == 0 {
				b.Beqi(reg(), r.Int63n(5), label)
			} else {
				b.Bnei(reg(), r.Int63n(5), label)
			}
			// Schedule the label; keep pending sorted by construction
			// (later branches target later points).
			target := b.Len() + dist
			if len(pending) > 0 && pending[len(pending)-1].at > target {
				target = pending[len(pending)-1].at
			}
			pending = append(pending, pendingBranch{at: target, label: label})
			// Emit fillers so the target exists even at the end.
			_ = target
		}
	}
	// Flush remaining labels with filler nops.
	for len(pending) > 0 {
		for b.Len() < pending[0].at {
			b.Nop()
		}
		b.Label(pending[0].label)
		pending = pending[1:]
	}
	b.Print(1)
	b.Halt()
	return b.MustBuild(), dets
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestDifferentialConcreteVsSymbolic: on fault-free random programs the
// symbolic executor must agree with the concrete machine step-for-step —
// same output, same instruction count, same termination status. This pins
// the "machine model is completely deterministic" property (Section 5.1)
// across both engines and both stepping modes.
func TestDifferentialConcreteVsSymbolic(t *testing.T) {
	r := rand.New(rand.NewSource(2008))
	for iter := 0; iter < 300; iter++ {
		prog, dets := randomProgram(r, 30+r.Intn(40))

		m := machine.New(prog, nil, machine.Options{Watchdog: 10_000, Detectors: dets})
		cres := m.Run()

		opts := DefaultOptions()
		opts.Watchdog = 10_000
		st := NewState(prog, dets, nil, opts)
		for st.Running() {
			if !st.StepInPlace() {
				t.Fatalf("iter %d: fault-free program forked at pc %d:\n%s", iter, st.PC, prog)
			}
			if err := termInvariant(st); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}

		cOutcome := OutcomeNormal
		if cres.Status == machine.StatusExcepted {
			switch cres.Exception.Kind {
			case isa.ExcTimeout:
				cOutcome = OutcomeHang
			case isa.ExcDetected:
				cOutcome = OutcomeDetected
			default:
				cOutcome = OutcomeCrash
			}
		}
		if cOutcome != st.Outcome() {
			t.Fatalf("iter %d: outcome mismatch: machine %v vs symbolic %v (%v)\n%s",
				iter, cOutcome, st.Outcome(), st.Exc, prog)
		}
		if cres.Steps != st.Steps {
			t.Fatalf("iter %d: steps %d vs %d\n%s", iter, cres.Steps, st.Steps, prog)
		}
		if machine.RenderOutput(cres.Output) != st.OutputString() {
			t.Fatalf("iter %d: output %q vs %q\n%s",
				iter, machine.RenderOutput(cres.Output), st.OutputString(), prog)
		}

		// And the Successors path must agree with StepInPlace.
		st2 := NewState(prog, dets, nil, opts)
		steps := 0
		for st2.Running() {
			succs := st2.Successors()
			if len(succs) != 1 {
				t.Fatalf("iter %d: Successors forked (%d) on fault-free program", iter, len(succs))
			}
			st2 = succs[0]
			steps++
			if steps > 20_000 {
				t.Fatalf("iter %d: runaway", iter)
			}
		}
		if st2.OutputString() != st.OutputString() || st2.Steps != st.Steps {
			t.Fatalf("iter %d: Successors/StepInPlace divergence", iter)
		}
	}
}

// TestDifferentialWithInjection: for random programs and random single
// register injections, every concrete value admitted by a symbolic
// terminal's constraints must, when injected concretely, reproduce an
// outcome enumerated by the symbolic search (soundness spot check).
func TestDifferentialWithInjection(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 120; iter++ {
		prog, dets := randomProgram(r, 25+r.Intn(30))

		// Pick an injection point: a random instruction with sources.
		var pcs []int
		for pc := 0; pc < prog.Len(); pc++ {
			if len(prog.At(pc).SrcRegs()) > 0 {
				pcs = append(pcs, pc)
			}
		}
		if len(pcs) == 0 {
			continue
		}
		pc := pcs[r.Intn(len(pcs))]
		srcs := prog.At(pc).SrcRegs()
		target := srcs[r.Intn(len(srcs))]

		// Symbolic exploration from the injection.
		opts := DefaultOptions()
		opts.Watchdog = 10_000
		st := NewState(prog, dets, nil, opts)
		reached := true
		for st.PC != pc {
			if !st.Running() || !st.StepInPlace() {
				reached = false
				break
			}
		}
		if !reached || !st.Running() {
			continue // injection point not on the fault-free path
		}
		root := st.Inject(isa.RegLoc(target))

		symbolicOutputs := map[string]bool{}
		var witnesses []int64
		frontier := []*State{st}
		states := 0
		for len(frontier) > 0 && states < 50_000 {
			cur := frontier[0]
			frontier = frontier[1:]
			if err := termInvariant(cur); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			for cur.Running() && cur.StepInPlace() {
				states++
				if err := termInvariant(cur); err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
			}
			if !cur.Running() {
				key := cur.Outcome().String() + "|" + cur.OutputString()
				symbolicOutputs[key] = true
				if c := cur.Sym.RootConstraints(root); c != nil {
					if w, ok := c.Witness(); ok {
						witnesses = append(witnesses, w)
					}
				}
				continue
			}
			frontier = append(frontier, cur.Successors()...)
			states++
		}
		if states >= 50_000 {
			continue // budget blown; skip the comparison
		}

		// Concrete re-injection of each witness must land in the
		// symbolically enumerated outcome set.
		for _, w := range witnesses {
			m := machine.New(prog, nil, machine.Options{Watchdog: 10_000, Detectors: dets})
			if m.RunUntil(pc, 1) {
				m.SetReg(target, isa.Int(w))
			}
			res := m.Run()
			outcome := OutcomeNormal
			if res.Status == machine.StatusExcepted {
				switch res.Exception.Kind {
				case isa.ExcTimeout:
					outcome = OutcomeHang
				case isa.ExcDetected:
					outcome = OutcomeDetected
				default:
					outcome = OutcomeCrash
				}
			}
			key := outcome.String() + "|" + machine.RenderOutput(res.Output)
			if !symbolicOutputs[key] {
				// The output may contain err symbolically; accept any
				// symbolic output whose outcome matches and which prints
				// err somewhere.
				matched := false
				for k := range symbolicOutputs {
					if len(k) >= len(outcome.String()) && k[:len(outcome.String())] == outcome.String() &&
						containsErr(k) {
						matched = true
						break
					}
				}
				if !matched {
					t.Fatalf("iter %d: concrete witness %d at @%d/%s produced %q, not enumerated in %v\n%s",
						iter, w, pc, target, key, keys(symbolicOutputs), prog)
				}
			}
		}
	}
}

func containsErr(s string) bool {
	for i := 0; i+3 <= len(s); i++ {
		if s[i:i+3] == "err" {
			return true
		}
	}
	return false
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
