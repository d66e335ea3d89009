package analysis

import "symplfied/internal/isa"

// computeLiveness runs backward may-liveness at instruction granularity:
//
//	LiveOut[pc] = union of LiveIn over successors of pc
//	LiveIn[pc]  = Uses(pc) | (LiveOut[pc] &^ Defs(pc))
//
// A register r with r not in LiveIn[pc] is written before it is read on
// every path from pc, so its value just before pc cannot influence the
// execution. Soundness notes:
//
//   - the CFG over-approximates executable paths, so liveness
//     over-approximates true liveness (safe for benign-injection proofs);
//   - detector reads at CHECK sites are uses (see Analysis.Uses);
//   - jr's successors are every instruction, so everything any instruction
//     reads is live across a jr — plus jr's own source register;
//   - an instruction that can fault (divide by zero, load of undefined
//     memory, read past the input) terminates the machine when it faults —
//     exceptions halt the program in this model — so a definition that
//     "might not happen" only fails to happen on paths with no further
//     reads, keeping the kill in the transfer function sound;
//   - terminal instructions (halt, throw, fall-off-the-end, a CHECK with an
//     unknown detector) have empty LiveOut.
//
// The fixpoint iterates to convergence; sets only grow, and each of the
// 31 bits per pc can flip once, so termination is immediate.
func (a *Analysis) computeLiveness() {
	n := a.Prog.Len()
	a.LiveIn = make([]RegSet, n)
	a.LiveOut = make([]RegSet, n)
	if n == 0 {
		return
	}

	uses := make([]RegSet, n)
	defs := make([]RegSet, n)
	for pc := 0; pc < n; pc++ {
		uses[pc] = a.Uses(pc)
		defs[pc] = a.Defs(pc)
	}

	// anyLiveIn is the union of LiveIn over all instructions: the LiveOut of
	// a jr, whose computed target may be any pc.
	var buf [2]int
	for changed := true; changed; {
		changed = false
		var anyLiveIn RegSet
		for pc := 0; pc < n; pc++ {
			anyLiveIn = anyLiveIn.Union(a.LiveIn[pc])
		}
		for pc := n - 1; pc >= 0; pc-- {
			var out RegSet
			succs, dynamic := succsOf(a.Prog, a.Detectors, pc, buf[:0])
			if dynamic {
				out = anyLiveIn
			} else {
				for _, s := range succs {
					out = out.Union(a.LiveIn[s])
				}
			}
			in := uses[pc].Union(out &^ defs[pc])
			if out != a.LiveOut[pc] || in != a.LiveIn[pc] {
				a.LiveOut[pc] = out
				a.LiveIn[pc] = in
				changed = true
			}
		}
	}
}

// computeNeverWritten runs forward must-uninitialized analysis — the
// one-bit-per-register dual of reaching definitions: a register is in
// NeverWritten[pc] when no path from entry to pc contains a definition of
// it, i.e. only the synthetic boot definition (the machine zeroes the
// register file) reaches pc. The meet is intersection over predecessors, so
// a read flagged by Lint is a read every execution performs on the boot
// value — "read of a never-written register" — rather than the much noisier
// may-variant that fires on every path-insensitive call-graph artifact.
func (a *Analysis) computeNeverWritten() {
	n := a.Prog.Len()
	a.NeverWritten = make([]RegSet, n)
	if n == 0 {
		return
	}

	// Top is AllRegs (no definition reaches); iterative intersection of
	// predecessor out-sets converges from above. Unreachable pcs stay at
	// top; Lint skips them anyway.
	for pc := range a.NeverWritten {
		a.NeverWritten[pc] = AllRegs
	}

	var buf [2]int
	for changed := true; changed; {
		changed = false
		for pc := 0; pc < n; pc++ {
			if !a.CFG.Reachable[pc] {
				continue
			}
			out := a.NeverWritten[pc] &^ a.Defs(pc)
			succs, dynamic := succsOf(a.Prog, a.Detectors, pc, buf[:0])
			if dynamic {
				// jr may reach any instruction.
				for s := 0; s < n; s++ {
					if meetUninit(a.NeverWritten, s, out) {
						changed = true
					}
				}
				continue
			}
			for _, s := range succs {
				if meetUninit(a.NeverWritten, s, out) {
					changed = true
				}
			}
		}
	}
}

// meetUninit intersects fact into pc's must-uninitialized set, reporting
// whether anything changed.
func meetUninit(sets []RegSet, pc int, fact RegSet) bool {
	merged := sets[pc] & fact
	if merged != sets[pc] {
		sets[pc] = merged
		return true
	}
	return false
}

// LiveRegsAt returns the live-in set at pc as a sorted register slice.
func (a *Analysis) LiveRegsAt(pc int) []isa.Reg {
	if pc < 0 || pc >= len(a.LiveIn) {
		return nil
	}
	return a.LiveIn[pc].Regs()
}
