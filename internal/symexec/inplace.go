package symexec

import (
	"strconv"

	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symbolic"
	"symplfied/internal/trace"
)

// StepInPlace executes one instruction by mutating the receiver when the
// step is deterministic (a single successor), returning true. It returns
// false — leaving the state untouched — when the step would fork, in which
// case the caller must expand with Successors. Callers must own the state
// exclusively (the checker's frontier states qualify).
//
// This is the executor's one deterministic step: Successors clones and
// calls it for every step that does not fork, and ShareableStep classifies
// its cases. It dispatches once on the lowered Kind. Concrete operands never
// touch the symbolic store: by the term invariant (a concrete location has
// no term, $0 excepted) a concrete write clears a term only when it
// overwrites err.
func (s *State) StepInPlace() bool {
	if !s.Running() {
		return false
	}
	if s.Steps >= s.Opts.Watchdog {
		s.raise(isa.ExcTimeout, "watchdog after "+strconv.Itoa(s.Steps)+" instructions")
		s.Stats.CountWatchdog()
		return true
	}
	code := s.Prog.Code()
	if uint(s.PC) >= uint(len(code)) {
		s.raise(isa.ExcIllegalInstr, "fetch from "+strconv.Itoa(s.PC))
		return true
	}
	op := &code[s.PC]
	switch op.Kind {
	case isa.KindAdd, isa.KindSub, isa.KindMult, isa.KindDiv, isa.KindMod, isa.KindAnd,
		isa.KindOr, isa.KindXor, isa.KindNor, isa.KindSll, isa.KindSrl, isa.KindSra:
		bin, _ := op.Kind.Bin()
		if x, y, ok := s.concreteOperands(op); ok {
			s.Steps++
			v, err := isa.EvalBin(bin, x, y)
			if err != nil {
				s.raise(isa.ExcDivZero, "")
				return true
			}
			s.setRegInt(op.Rd, v)
			s.PC++
			return true
		}
		x, y := s.operands(op)
		res := symbolic.PropagateBin(bin, x, y, s.Opts.AffineTracking)
		if res.ForkOnDivisor {
			return false
		}
		s.Steps++
		if res.DivZero {
			s.raise(isa.ExcDivZero, "")
			return true
		}
		s.setReg(op.Rd, res.Val, res.Term, res.HasTerm)
	case isa.KindSetEq, isa.KindSetNe, isa.KindSetGt, isa.KindSetLt, isa.KindSetGe, isa.KindSetLe:
		cmp, _ := op.Kind.Cmp()
		taken, decided := s.decide(op, cmp)
		if !decided {
			return false
		}
		s.Steps++
		var v int64
		if taken {
			v = 1
		}
		s.setRegInt(op.Rd, v)
	case isa.KindBranch:
		taken, decided := s.decide(op, branchCmp(op))
		if !decided {
			return false
		}
		s.Steps++
		if taken {
			s.PC = op.Target
			return true
		}
	case isa.KindMov:
		s.Steps++
		if v := s.Regs[op.Rs]; !v.IsErr() {
			s.setRegInt(op.Rd, v.MustConcrete())
		} else {
			x := s.regOperand(op.Rs)
			s.setReg(op.Rd, x.Val, x.Term, x.HasTerm)
		}
	case isa.KindLi:
		s.Steps++
		s.setRegInt(op.Rd, op.Imm)
	case isa.KindLd:
		base := s.Regs[op.Rs]
		if base.IsErr() {
			return false
		}
		s.Steps++
		addr := base.MustConcrete() + op.Imm
		v, defined := s.Mem.Load(addr)
		switch {
		case !defined:
			s.raise(isa.ExcIllegalAddr, "load from undefined "+strconv.FormatInt(addr, 10))
			return true
		case !v.IsErr():
			s.setRegInt(op.Rt, v.MustConcrete())
		default:
			x, _ := s.memOperand(addr)
			s.setReg(op.Rt, x.Val, x.Term, x.HasTerm)
		}
	case isa.KindSt:
		base := s.Regs[op.Rs]
		if base.IsErr() {
			return false
		}
		s.Steps++
		addr := base.MustConcrete() + op.Imm
		if v := s.Regs[op.Rt]; !v.IsErr() {
			s.setMemInt(addr, v.MustConcrete())
		} else {
			x := s.regOperand(op.Rt)
			s.setMem(addr, x.Val, x.Term, x.HasTerm)
		}
	case isa.KindJmp:
		s.Steps++
		s.PC = op.Target
		return true
	case isa.KindJal:
		s.Steps++
		s.setRegInt(isa.RegRA, int64(s.PC+1))
		s.PC = op.Target
		return true
	case isa.KindJr:
		target := s.Regs[op.Rs]
		if target.IsErr() {
			return false
		}
		s.Steps++
		s.PC = int(target.MustConcrete())
		return true
	case isa.KindRead:
		s.Steps++
		if s.InPos >= len(s.In) {
			s.raise(isa.ExcThrow, "end of input")
			return true
		}
		s.InPos++
		s.setReg(op.Rd, s.In[s.InPos-1], symbolic.Term{}, false)
	case isa.KindPrint:
		s.Steps++
		v := s.Regs[op.Rd]
		s.Out = append(s.Out, machine.OutItem{Val: v})
		if v.IsErr() {
			s.note(trace.KindOutput, trace.Text("printed err"))
		}
	case isa.KindPrints:
		s.Steps++
		s.Out = append(s.Out, machine.OutItem{IsStr: true, Str: s.Prog.At(s.PC).Str})
	case isa.KindNop:
		s.Steps++
	case isa.KindHalt:
		s.Steps++
		s.Status = machine.StatusHalted
		s.note(trace.KindHalt, trace.Halt(s.Out))
		return true
	case isa.KindThrow:
		s.Steps++
		s.raise(isa.ExcThrow, s.Prog.At(s.PC).Str)
		return true
	case isa.KindCheck:
		return s.stepCheck(op.Imm)
	default:
		s.Steps++
		s.raise(isa.ExcIllegalInstr, "unsupported opcode "+s.Prog.At(s.PC).Op.String())
		return true
	}
	s.PC++
	return true
}

// ErrFree reports whether no location of s holds err: its store has no
// term and no location is stuck-at. By the term invariant every err-holding
// location has a term, so the concrete machine runs such a state exactly as
// StepInPlace would (RunConcrete).
func (s *State) ErrFree() bool { return !s.Sym.HasTerms() && len(s.Stuck) == 0 }

// RunConcrete runs the running, err-free state s (ErrFree) on the concrete
// machine m for at most maxStates states, leaving s exactly as that many
// StepInPlace calls would: PC, registers, memory, output, input position,
// step count, status, exception, the halt or exception trace note and the
// watchdog tally. It returns the states used: one per executed or skipped
// instruction, plus one for a final raise that executes none (the watchdog,
// a fetch from an invalid pc); skipped is the part of them the machine's
// cycle accelerator skipped rather than executed (machine.RunTail). It
// returns no states, leaving s as it was, when the next step would execute a
// CHECK: the machine stops before every CHECK, so StepInPlace runs the
// detector and its pass and firing notes come from the symbolic step alone.
// On a scratch child the halt or exception note waits for Materialize, and
// the exception is written into the Scratch's buffer.
// The memory image and output stream move into m and back, so a memory
// table shared with a clone stays shared until the machine stores to it.
func (s *State) RunConcrete(m *machine.Machine, maxStates int) (states, skipped int) {
	img := machine.Image{PC: s.PC, Regs: s.Regs, Mem: s.Mem, In: s.In, InPos: s.InPos, Out: s.Out, Steps: s.Steps}
	if s.scratch != nil {
		img.ExcBuf = &s.scratch.exc
	}
	from := s.Steps
	skipped = m.RunTail(s.Prog, s.Opts.Watchdog, &img, from+maxStates)
	s.PC, s.Regs, s.Mem, s.InPos, s.Out = img.PC, img.Regs, img.Mem, img.InPos, img.Out
	s.Steps, s.Status, s.Exc = img.Steps, img.Status, img.Exc
	states = s.Steps - from
	if s.Status == machine.StatusExcepted {
		if s.Exc.Kind == isa.ExcTimeout {
			s.Stats.CountWatchdog()
			states++
		} else if !s.Prog.ValidPC(s.PC) {
			states++
		}
	}
	if s.scratch == nil {
		s.noteStop()
	}
	return states, skipped
}

// noteStop notes how a tail stopped, if it did: the halt or the exception.
// A scratch child (ControlFan.Next) defers the note to Materialize, so a
// child that terminates unkept never builds it.
func (s *State) noteStop() {
	switch s.Status {
	case machine.StatusHalted:
		s.note(trace.KindHalt, trace.Halt(s.Out))
	case machine.StatusExcepted:
		s.note(trace.KindException, trace.Exception(s.Exc))
	}
}

// concreteOperands reads the two operands of an arithmetic, comparison-set
// or branch op; ok is false when either holds err. $0 always holds 0.
func (s *State) concreteOperands(op *isa.Lowered) (x, y int64, ok bool) {
	xv := s.Regs[op.Rs]
	if op.UseImm {
		return xv.MustConcrete(), op.Imm, !xv.IsErr()
	}
	yv := s.Regs[op.Rt]
	return xv.MustConcrete(), yv.MustConcrete(), !xv.IsErr() && !yv.IsErr()
}

// operands reads the two operands of an arithmetic, comparison-set or
// branch op as propagation operands, with their terms.
func (s *State) operands(op *isa.Lowered) (x, y symbolic.Operand) {
	x = s.regOperand(op.Rs)
	if op.UseImm {
		return x, symbolic.ConcreteOperand(op.Imm)
	}
	return x, s.regOperand(op.Rt)
}

// branchCmp is the comparison a branch op takes on.
func branchCmp(op *isa.Lowered) isa.Cmp {
	if op.Neg {
		return isa.CmpNe
	}
	return isa.CmpEq
}

// decide evaluates "Rs cmp Rt-or-Imm". decided is false when the outcome
// depends on err, so the step forks.
func (s *State) decide(op *isa.Lowered, cmp isa.Cmp) (taken, decided bool) {
	if x, y, ok := s.concreteOperands(op); ok {
		return isa.EvalCmp(cmp, x, y), true
	}
	x, y := s.operands(op)
	switch symbolic.DecideCmp(cmp, x, y) {
	case symbolic.CmpTrue:
		return true, true
	case symbolic.CmpFalse:
		return false, true
	}
	return false, false
}

// stepCheck runs detector id in place unless its verdict depends on err.
func (s *State) stepCheck(id int64) bool {
	det, target, expr, err := s.detectorOperands(id)
	if err != nil {
		s.Steps++
		s.raise(isa.ExcThrow, err.Error())
		if det != nil {
			s.Exc.Detector = det.ID
		}
		return true
	}
	switch symbolic.DecideCmp(det.Cmp, target, expr) {
	case symbolic.CmpTrue:
		s.Steps++
		s.note(trace.KindCheckPass, trace.CheckPass(det))
		s.PC++
		return true
	case symbolic.CmpFalse:
		s.Steps++
		s.note(trace.KindDetect, trace.Detect(det))
		s.raise(isa.ExcDetected, detectedDetail(det))
		s.Exc.Detector = det.ID
		return true
	}
	return false
}
