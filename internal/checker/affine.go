package checker

import (
	"symplfied/internal/isa"
	"symplfied/internal/symbolic"
	"symplfied/internal/symexec"
)

// Affine lap extrapolation, the second gear of the merged explorer's cycle
// accelerator. Exact-recurrence acceleration (LoopHash) only fires when a
// deterministic loop revisits its configuration bit for bit; a hang whose
// loop carries a live counter — the common shape of an erroneous
// control-flow loop, `i` marching toward the watchdog — never recurs
// exactly, so lap after lap is executed for real. But such laps are usually
// affine: each one applies the same linear map to the register file. When a
// lap can be proven affine, the explorer computes the per-lap register delta
// once and jumps the state to the last lap boundary below the watchdog in
// O(1), exactly as if every lap had been stepped.
//
// The proof obligation has two halves:
//
//   - Structurally (affineLapOK): starting from the registers whose values
//     changed across the measured lap (the tainted set, closed over the
//     lap's linear instructions), no instruction whose behavior could vary —
//     a branch, an indirect jump, a memory access, a divisor, a
//     non-linear ALU op, any I/O or detector check — reads a tainted
//     register. Untainted registers are then lap-invariant by induction, so
//     every future lap executes the identical instruction sequence, touches
//     the identical memory cells with identical values, and transforms the
//     tainted registers by the same linear map A with the same offset.
//
//   - Numerically (the verify lap in runSingle): the lap mints no root and
//     leaves the constraint store unchanged, and the per-lap delta vector d
//     satisfies A·d = d. Because the delta evolves linearly (dₙ₊₁ = A·dₙ;
//     the offset cancels), observing two consecutive equal deltas proves
//     dₙ = d for every future lap, so regs(n laps) = regs + n·d. The
//     interpreter's arithmetic wraps (isa.EvalBin uses Go int64 ops), and
//     the extrapolated k·d addition wraps identically mod 2^64.
//
// Anything the analysis cannot prove simply declines — the state keeps
// stepping for real, and the SYMPLFIED_CHECK_MERGING cross-check holds the
// implementation to byte-identical verdicts either way.

// maxAffineLap bounds the recorded lap window: loops longer than this are
// not probed (the window recording and taint analysis are O(lap length)).
const maxAffineLap = 1024

// affineProbe is an in-flight affinity verification: the recorded lap, the
// registers and measured delta at the lap boundary where the probe was
// armed, and the progress of the verify lap.
type affineProbe struct {
	window []int // executed pc sequence of one lap
	delta  [isa.NumRegs]int64
	regs0  [isa.NumRegs]isa.Value
	sym    uint64 // storeHash at the lap boundary
	idx    int    // next window position the verify lap must execute
}

// storeHash hashes a constraint store's content. The verify lap must leave
// the store as it found it: the delta covers concrete registers only, and a
// lap that keeps rewriting an err location's term (say $26 = $26 + e#0)
// would otherwise be extrapolated with the term frozen.
func storeHash(s *symbolic.Store) uint64 {
	h := symbolic.NewHash64()
	s.KeyHash(&h)
	return h.Sum()
}

// lapDelta computes the per-register boundary delta between two register
// files. ok is false when any changing register is non-concrete on either
// side (the err value has no delta arithmetic).
func lapDelta(before, after *[isa.NumRegs]isa.Value) (delta [isa.NumRegs]int64, ok bool) {
	for r := range before {
		b, a := before[r], after[r]
		if b.Equal(a) {
			continue
		}
		bc, bok := b.Concrete()
		ac, aok := a.Concrete()
		if !bok || !aok {
			return delta, false
		}
		delta[r] = ac - bc
	}
	return delta, true
}

// affineLapOK reports whether the lap described by window (a pc sequence)
// provably applies the same affine register map on every future iteration,
// given the registers that changed across the measured lap (nonzero delta).
func affineLapOK(prog *isa.Program, window []int, delta *[isa.NumRegs]int64) bool {
	var tainted [isa.NumRegs]bool
	for r, d := range delta {
		if d != 0 {
			tainted[r] = true
		}
	}
	// Close the tainted set over the lap's linear instructions: any register
	// computed from a tainted one may vary across laps. Non-linear ops with
	// tainted sources are rejected by the validation pass below, so their
	// outputs never need tainting. $zero absorbs writes and is never tainted.
	taint := func(r isa.Reg) bool {
		if r == isa.RegZero || tainted[r] {
			return false
		}
		tainted[r] = true
		return true
	}
	for again := true; again; {
		again = false
		for _, pc := range window {
			in := prog.At(pc)
			var from bool
			switch bin, imm, isArith := isa.ArithOp(in.Op); {
			case isArith && (bin == isa.BinAdd || bin == isa.BinSub || bin == isa.BinMult || bin == isa.BinSll):
				from = tainted[in.Rs] || (!imm && tainted[in.Rt])
			case in.Op == isa.OpMov:
				from = tainted[in.Rs]
			default:
				continue
			}
			if from && taint(in.Rd) {
				again = true
			}
		}
	}
	// Validate every instruction in the lap against the tainted set.
	for _, pc := range window {
		in := prog.At(pc)
		if bin, imm, isArith := isa.ArithOp(in.Op); isArith {
			switch bin {
			case isa.BinAdd, isa.BinSub:
				continue // linear in both operands
			case isa.BinMult:
				// Linear when at most one factor varies.
				if imm || !tainted[in.Rs] || !tainted[in.Rt] {
					continue
				}
			case isa.BinSll:
				// x<<c is multiplication by a power of two; the shift
				// amount itself must be invariant.
				if imm || !tainted[in.Rt] {
					continue
				}
			default:
				// Div/mod/bitwise/right shifts are not linear mod 2^64.
				if !tainted[in.Rs] && (imm || !tainted[in.Rt]) {
					continue
				}
			}
			return false
		}
		if _, imm, isCmp := isa.CmpForOp(in.Op); isCmp {
			if !tainted[in.Rs] && (imm || !tainted[in.Rt]) {
				continue
			}
			return false
		}
		switch in.Op {
		case isa.OpMov, isa.OpLi, isa.OpLui, isa.OpNop, isa.OpJmp, isa.OpJal:
			// Register-invariant or purely linear moves; jal links a
			// constant return address.
		case isa.OpLd:
			// The address must be invariant; the store rule below keeps
			// every touched cell lap-invariant, so the loaded value is too.
			if tainted[in.Rs] {
				return false
			}
		case isa.OpSt:
			// Invariant address and value keep memory a per-lap fixed point.
			if tainted[in.Rs] || tainted[in.Rt] {
				return false
			}
		case isa.OpBeq, isa.OpBne:
			if tainted[in.Rs] || tainted[in.Rt] {
				return false
			}
		case isa.OpBeqi, isa.OpBnei, isa.OpJr:
			if tainted[in.Rs] {
				return false
			}
		default:
			// I/O, detector checks, throw/halt, or anything unclassified:
			// a lap containing these is never extrapolated.
			return false
		}
	}
	return true
}

// applyAffine advances every changing register by k laps' worth of delta.
// lapDelta already proved the changing registers concrete, and wrapping
// int64 addition matches k sequential executions of the lap mod 2^64.
func applyAffine(s *symexec.State, delta *[isa.NumRegs]int64, k int) {
	for r, d := range delta {
		if d != 0 {
			v, _ := s.Regs[r].Concrete()
			s.Regs[r] = isa.Int(v + int64(k)*d)
		}
	}
}
