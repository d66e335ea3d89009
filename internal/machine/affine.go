package machine

import "symplfied/internal/isa"

// Affine lap extrapolation, the proof both cycle accelerators share: the
// concrete machine's (RunTail) and the merged explorer's (internal/checker).
// Exact-recurrence acceleration only fires when a deterministic loop
// revisits its configuration bit for bit; a hang whose loop carries a live
// counter — the common shape of an erroneous control-flow loop, `i`
// marching toward the watchdog — never recurs exactly, so lap after lap is
// executed for real. But such laps are usually affine: each one applies the
// same linear map to the register file. When a lap can be proven affine,
// the accelerator computes the per-lap register delta once and jumps the
// state to the last lap boundary below its step limit in O(1), exactly as if
// every lap had been executed.
//
// The proof obligation has two halves:
//
//   - Structurally (AffineLapOK): starting from the registers whose values
//     changed across the measured lap (the tainted set, closed over the
//     lap's linear instructions), no instruction whose behavior could vary —
//     a branch, an indirect jump, a memory access, a divisor, a
//     non-linear ALU op, any I/O or detector check — reads a tainted
//     register. Untainted registers are then lap-invariant by induction, so
//     every future lap executes the identical instruction sequence, touches
//     the identical memory cells with identical values, and transforms the
//     tainted registers by the same linear map A with the same offset.
//
//   - Numerically (the caller's verify lap): the next lap replays the
//     measured lap's pc sequence and repeats its delta vector d (LapDelta),
//     so A·d = d. Because the delta evolves linearly (dₙ₊₁ = A·dₙ; the
//     offset cancels), two consecutive equal deltas prove dₙ = d for every
//     future lap, so regs(n laps) = regs + n·d (AdvanceAffine). The
//     interpreter's arithmetic wraps (isa.EvalBin uses Go int64 ops), and
//     the extrapolated k·d addition wraps identically mod 2^64.
//
// The delta and window must come from the same lap: the tainted set is
// only closed over the instructions that lap executed. The lap must also
// leave memory as it found it, which the caller checks: the induction above
// starts from equal memory, and a counter kept in memory is no register
// delta. Anything the analysis cannot prove simply declines, and the state
// keeps executing for real.

// MaxAffineLap bounds the recorded lap window: loops longer than this are
// not probed (the window recording and taint analysis are O(lap length)).
const MaxAffineLap = 1024

// LapDelta computes the per-register boundary delta between two register
// files. ok is false when any changing register is non-concrete on either
// side (the err value has no delta arithmetic).
func LapDelta(before, after *[isa.NumRegs]isa.Value) (delta [isa.NumRegs]int64, ok bool) {
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

// AffineLapOK reports whether the lap described by window (a pc sequence)
// provably applies the same affine register map on every future iteration,
// given the registers that changed across the measured lap (nonzero delta)
// and a measured lap that left memory unchanged.
func AffineLapOK(prog *isa.Program, window []int, delta *[isa.NumRegs]int64) bool {
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

// AdvanceAffine advances every changing register by k laps' worth of delta.
// LapDelta already proved the changing registers concrete, and wrapping
// int64 addition matches k sequential executions of the lap mod 2^64.
func AdvanceAffine(regs *[isa.NumRegs]isa.Value, delta *[isa.NumRegs]int64, k int) {
	for r, d := range delta {
		if d != 0 {
			v, _ := regs[r].Concrete()
			regs[r] = isa.Int(v + int64(k)*d)
		}
	}
}
