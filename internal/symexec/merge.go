package symexec

import (
	"symplfied/internal/isa"
)

// Support for post-dominator state merging (checker.Spec.MergeStates). Two
// forked states that rejoin at a control-flow merge point with the same
// concrete skeleton — equal PC, registers, memory, input cursor, output,
// status — differ only in their symbolic stores (what is known about err),
// their traces (how they got here), and their step counters (when). The
// merged explorer fuses such states into one representative carrying the
// sibling worlds, executes the steps that cannot tell the worlds apart once,
// and splits back into singles the moment a step could observe the
// difference. ShareableStep is that observability judgment; MergeCompatible
// is the exact skeleton comparison behind the grouping.

// valueEq compares machine words with err as a class: all err values are
// equal (their identities live in the store, which merging deliberately
// ignores), concrete values compare by integer.
func valueEq(a, b isa.Value) bool {
	if a.IsErr() || b.IsErr() {
		return a.IsErr() && b.IsErr()
	}
	av, _ := a.Concrete()
	bv, _ := b.Concrete()
	return av == bv
}

// MergeCompatible reports whether a and b have identical concrete skeletons:
// every component of the configuration except the symbolic store, the trace,
// and the step counter. It is an equivalence relation (err compares as one
// class), so callers may bucket candidates by any digest of these fields
// and confirm here.
func MergeCompatible(a, b *State) bool {
	if a.PC != b.PC || a.InPos != b.InPos || a.Status != b.Status ||
		a.Truncated != b.Truncated || len(a.In) != len(b.In) ||
		a.Mem.Len() != b.Mem.Len() || len(a.Out) != len(b.Out) ||
		len(a.Stuck) != len(b.Stuck) {
		return false
	}
	for r := range a.Regs {
		if !valueEq(a.Regs[r], b.Regs[r]) {
			return false
		}
	}
	same := true
	a.Mem.Range(func(addr int64, av isa.Value) bool {
		bv, ok := b.Mem.Load(addr)
		same = ok && valueEq(av, bv)
		return same
	})
	if !same {
		return false
	}
	for i := range a.Out {
		ao, bo := a.Out[i], b.Out[i]
		if ao.IsStr != bo.IsStr {
			return false
		}
		if ao.IsStr {
			if ao.Str != bo.Str {
				return false
			}
		} else if !valueEq(ao.Val, bo.Val) {
			return false
		}
	}
	for l := range a.Stuck {
		if _, ok := b.Stuck[l]; !ok {
			return false
		}
	}
	return true
}

// ShareableStep reports whether the next instruction can be executed once on
// behalf of every world of a merged state: it must be deterministic, must
// not touch the symbolic store (no err operand, no err destination being
// overwritten), must not append a trace event, and must not terminate the
// state. In StepInPlace's terms it is a step that takes only concrete-operand
// paths, Kind by Kind; the equivalence is pinned by
// TestShareableStepIsInvisible and, end to end, by FuzzMergeEquivalence in
// the checker.
//
// The caller handles the watchdog separately (worlds disagree on Steps, so
// watchdog proximity forces a split before this question is asked).
func (s *State) ShareableStep() bool {
	if !s.Running() || !s.Prog.ValidPC(s.PC) {
		return false
	}
	op := &s.Prog.Code()[s.PC]
	conc := func(r isa.Reg) bool { return !s.Regs[r].IsErr() }
	switch op.Kind {
	case isa.KindAdd, isa.KindSub, isa.KindMult, isa.KindDiv, isa.KindMod, isa.KindAnd,
		isa.KindOr, isa.KindXor, isa.KindNor, isa.KindSll, isa.KindSrl, isa.KindSra:
		x, y, ok := s.concreteOperands(op)
		if !ok || !conc(op.Rd) {
			return false
		}
		// Concrete division by zero raises (terminal): not shareable.
		bin, _ := op.Kind.Bin()
		_, err := isa.EvalBin(bin, x, y)
		return err == nil
	case isa.KindSetEq, isa.KindSetNe, isa.KindSetGt, isa.KindSetLt, isa.KindSetGe, isa.KindSetLe:
		_, _, ok := s.concreteOperands(op)
		return ok && conc(op.Rd)
	case isa.KindBranch:
		_, _, ok := s.concreteOperands(op)
		return ok
	case isa.KindMov:
		return conc(op.Rs) && conc(op.Rd)
	case isa.KindLi:
		return conc(op.Rd)
	case isa.KindLd:
		if !conc(op.Rs) || !conc(op.Rt) {
			return false
		}
		// Undefined address raises (terminal); an err cell loads a term.
		v, defined := s.Mem.Load(s.Regs[op.Rs].MustConcrete() + op.Imm)
		return defined && !v.IsErr()
	case isa.KindSt:
		if !conc(op.Rs) || !conc(op.Rt) {
			return false
		}
		// Overwriting an err cell clears its term (a store mutation).
		v, defined := s.Mem.Load(s.Regs[op.Rs].MustConcrete() + op.Imm)
		return !defined || !v.IsErr()
	case isa.KindJmp, isa.KindPrints, isa.KindNop:
		return true
	case isa.KindJal:
		return conc(isa.RegRA)
	case isa.KindJr:
		return conc(op.Rs)
	case isa.KindRead:
		// End of input raises (terminal); a symbolic input value reaches
		// the store.
		return s.InPos < len(s.In) && !s.In[s.InPos].IsErr() && conc(op.Rd)
	case isa.KindPrint:
		// Printing err appends a trace event; concrete prints are silent.
		return conc(op.Rd)
	}
	// halt, throw, check, and anything unknown: terminal, trace-noting, or
	// store-dependent.
	return false
}
