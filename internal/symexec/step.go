package symexec

import (
	"fmt"
	"slices"
	"strconv"

	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/obs"
	"symplfied/internal/symbolic"
	"symplfied/internal/trace"
)

// Successors computes the state's rewrite successors without mutating the
// receiver. A terminated state has none. A deterministic step yields one
// successor: a clone advanced by StepInPlace. A step whose outcome depends
// on an erroneous value yields one successor per nondeterministic
// resolution, with path constraints recorded and unsatisfiable resolutions
// pruned (the false-positive elimination of Section 5.2). Every successor
// is built now; ControlFanout offers a jr's fan-out as a cursor instead.
func (s *State) Successors() []*State {
	if !s.Running() {
		return nil
	}
	if out, forked := s.expand(); forked {
		return out
	}
	c := s.Clone()
	c.StepInPlace()
	return []*State{c}
}

// expand builds the successors of a step that forks: an undecided
// comparison, branch or detector, a division by an erroneous divisor, or a
// load, store or jr through an erroneous register. It reports false, and
// builds nothing, when the step is deterministic (StepInPlace's business),
// so a caller whose StepInPlace just declined pays no clone beyond the forks.
func (s *State) expand() (out []*State, forked bool) {
	if s.Steps >= s.Opts.Watchdog || !s.Prog.ValidPC(s.PC) {
		return nil, false
	}
	op := &s.Prog.Code()[s.PC]
	switch op.Kind {
	case isa.KindDiv, isa.KindMod:
		if op.UseImm || !s.Regs[op.Rt].IsErr() {
			return nil, false
		}
		return s.forkDivisor(op), true
	case isa.KindSetEq, isa.KindSetNe, isa.KindSetGt, isa.KindSetLt, isa.KindSetGe, isa.KindSetLe:
		cmp, _ := op.Kind.Cmp()
		if _, decided := s.decide(op, cmp); decided {
			return nil, false
		}
		return s.forkSetCmp(op, cmp), true
	case isa.KindBranch:
		if _, decided := s.decide(op, branchCmp(op)); decided {
			return nil, false
		}
		return s.forkBranch(op), true
	case isa.KindLd:
		if !s.Regs[op.Rs].IsErr() {
			return nil, false
		}
		return s.forkLoad(op), true
	case isa.KindSt:
		if !s.Regs[op.Rs].IsErr() {
			return nil, false
		}
		return s.forkStore(op), true
	case isa.KindJr:
		if !s.Regs[op.Rs].IsErr() {
			return nil, false
		}
		return s.forkJr(op), true
	case isa.KindCheck:
		det, target, expr, err := s.detectorOperands(op.Imm)
		if err != nil || symbolic.DecideCmp(det.Cmp, target, expr) != symbolic.CmpFork {
			return nil, false
		}
		return s.forkCheck(det, target, expr), true
	}
	return nil, false
}

// detectorOperands looks detector id up and evaluates both sides of its
// comparison. det is nil when the detector is unknown.
func (s *State) detectorOperands(id int64) (det *detector.Detector, target, expr symbolic.Operand, err error) {
	det, ok := s.Dets.Lookup(id)
	if !ok {
		return nil, target, expr, fmt.Errorf("unknown detector %d", id)
	}
	if target, err = det.TargetOperand(s); err != nil {
		return det, target, expr, err
	}
	expr, err = det.EvalExpr(s, s.Opts.AffineTracking)
	return det, target, expr, err
}

// fork clones the state and accounts one executed instruction.
func (s *State) fork() *State {
	c := s.Clone()
	c.Steps++
	return c
}

// constrainOperand conjoins "op cmp rhs" onto the path, returning false when
// the path becomes infeasible. Operands of unknown lineage yield no
// constraint (sound: both forks stay live, as in the paper's model).
func (s *State) constrainOperand(op symbolic.Operand, cmp isa.Cmp, rhs int64, why trace.Why) bool {
	if op.Val.IsConcrete() {
		v, _ := op.Val.Concrete()
		return isa.EvalCmp(cmp, v, rhs)
	}
	if !op.HasTerm {
		return true
	}
	if !s.Sym.ConstrainTerm(op.Term, cmp, rhs) {
		return false
	}
	s.note(trace.KindConstraint, trace.Constraint(why, op.Term, cmp, rhs))
	s.Sym.ConcretizeRoot(op.Term.Root, s.setExact)
	return true
}

// constrainNotIn conjoins "op =/= v-sub" for every v in vals: the batched
// twin of a constrainOperand(op, CmpNe, v-sub, why) loop that stops at the
// first infeasible atom. It has the loop's verdict and, when feasible, notes
// the same len(vals) constraint events in one trace cell and leaves the same
// store, with a single update of op's root and a single concretization.
func (s *State) constrainNotIn(op symbolic.Operand, vals []int64, sub int64, why trace.Why) bool {
	if op.Val.IsConcrete() {
		v, _ := op.Val.Concrete()
		for _, a := range vals {
			if v == a-sub {
				return false
			}
		}
		return true
	}
	if !op.HasTerm || len(vals) == 0 {
		return true
	}
	if !s.Sym.ConstrainTermNotIn(op.Term, vals, sub) {
		return false
	}
	s.note(trace.KindConstraint, trace.NotIn(why, op.Term, vals, sub))
	s.Sym.ConcretizeRoot(op.Term.Root, s.setExact)
	return true
}

// applyCmp conjoins "x cmp y" onto the path. It handles err-vs-concrete in
// both positions and err-vs-err over a shared root; err-vs-err over
// unrelated roots yields no constraint (the paper's over-approximation).
func (s *State) applyCmp(cmp isa.Cmp, x, y symbolic.Operand, why trace.Why) bool {
	xc, xConc := x.Val.Concrete()
	yc, yConc := y.Val.Concrete()
	switch {
	case xConc && yConc:
		return isa.EvalCmp(cmp, xc, yc)
	case !xConc && yConc:
		return s.constrainOperand(x, cmp, yc, why)
	case xConc && !yConc:
		return s.constrainOperand(y, cmp.Swap(), xc, why)
	default:
		if x.HasTerm && y.HasTerm && x.Term.Root == y.Term.Root {
			diff, c, isConst, ok := x.Term.SubTerm(y.Term)
			if ok {
				if isConst {
					return isa.EvalCmp(cmp, c, 0)
				}
				return s.constrainOperand(symbolic.ErrOperand(diff), cmp, 0, why)
			}
		}
		if x.HasTerm && y.HasTerm {
			// Distinct roots: record a difference constraint when the
			// relation fits the difference-logic fragment.
			handled, sat := s.Sym.AddRel(x.Term, cmp, y.Term)
			if handled {
				if !sat {
					return false
				}
				s.note(trace.KindConstraint, trace.Relation(why, x.Term, cmp, y.Term))
			}
		}
		return true
	}
}

// forkCmp resolves an undecided "x cmp y", producing the surviving true-
// and false-case states (either may be nil after pruning). kind tags the
// fork in ExecStats (obs.ForkCmp for ordinary comparisons, obs.ForkDetector
// for CHECKs).
func (s *State) forkCmp(kind string, cmp isa.Cmp, x, y symbolic.Operand, why trace.Why) (tState, fState *State) {
	t := s.fork()
	t.note(trace.KindFork, trace.Assume(why, cmp))
	if !t.applyCmp(cmp, x, y, why) {
		t = nil
		s.Stats.CountPrune()
	}
	f := s.fork()
	f.note(trace.KindFork, trace.Assume(why, cmp.Negate()))
	if !f.applyCmp(cmp.Negate(), x, y, why) {
		f = nil
		s.Stats.CountPrune()
	}
	if t != nil && f != nil {
		s.Stats.CountFork(kind)
	}
	return t, f
}

// forkDivisor splits a division by an erroneous divisor. Paper:
// eq I / err = if isEqual(err, 0) then throw "div-zero" else err.
func (s *State) forkDivisor(op *isa.Lowered) []*State {
	divisor := s.regOperand(op.Rt)
	var out []*State
	zero := s.fork()
	zero.note(trace.KindFork, trace.Text("divisor err: assume == 0"))
	if zero.constrainOperand(divisor, isa.CmpEq, 0, trace.Reason("div-zero case")) {
		zero.raise(isa.ExcDivZero, "erroneous divisor assumed zero")
		out = append(out, zero)
	} else {
		s.Stats.CountPrune()
	}
	nz := s.fork()
	nz.note(trace.KindFork, trace.Text("divisor err: assume != 0"))
	if nz.constrainOperand(divisor, isa.CmpNe, 0, trace.Reason("div-nonzero case")) {
		nz.setReg(op.Rd, isa.Err(), symbolic.Term{}, false)
		nz.PC++
		out = append(out, nz)
	} else {
		s.Stats.CountPrune()
	}
	if len(out) == 2 {
		s.Stats.CountFork(obs.ForkDivisor)
	}
	return out
}

func (s *State) forkSetCmp(op *isa.Lowered, cmp isa.Cmp) []*State {
	x, y := s.operands(op)
	t, f := s.forkCmp(obs.ForkCmp, cmp, x, y, trace.Instr(s.Prog))
	var out []*State
	if t != nil {
		t.setRegInt(op.Rd, 1)
		t.PC++
		out = append(out, t)
	}
	if f != nil {
		f.setRegInt(op.Rd, 0)
		f.PC++
		out = append(out, f)
	}
	return out
}

func (s *State) forkBranch(op *isa.Lowered) []*State {
	x, y := s.operands(op)
	t, f := s.forkCmp(obs.ForkCmp, branchCmp(op), x, y, trace.Instr(s.Prog))
	var out []*State
	if t != nil {
		t.PC = op.Target
		out = append(out, t)
	}
	if f != nil {
		f.PC++
		out = append(out, f)
	}
	return out
}

// definedAddrsSorted returns the defined memory addresses in order. Forks
// keep the slice in their trace cells, so it is never modified afterwards.
func (s *State) definedAddrsSorted() []int64 {
	addrs := make([]int64, 0, s.Mem.Len())
	s.Mem.Range(func(a int64, _ isa.Value) bool {
		addrs = append(addrs, a)
		return true
	})
	slices.Sort(addrs)
	return addrs
}

// forkLoad resolves a load through an erroneous pointer (Section 5.2,
// memory-handling sub-model): the program either "retrieves the contents of
// an arbitrary memory location or throws an illegal-address exception".
func (s *State) forkLoad(op *isa.Lowered) []*State {
	base := s.regOperand(op.Rs)
	addrs := s.definedAddrsSorted()
	var out []*State

	exc := s.fork()
	exc.note(trace.KindFork, trace.Text("load through erroneous pointer: assume undefined address"))
	if exc.constrainNotIn(base, addrs, op.Imm, trace.Reason("address not defined")) {
		exc.raise(isa.ExcIllegalAddr, "load through erroneous pointer")
		out = append(out, exc)
	} else {
		s.Stats.CountPrune()
	}

	if s.Opts.SymbolicMem {
		c := s.fork()
		c.note(trace.KindFork, trace.Text("load through erroneous pointer: symbolic result"))
		c.setReg(op.Rt, isa.Err(), symbolic.Term{}, false)
		c.PC++
		out = append(out, c)
		s.countFan(obs.ForkLoad, len(out))
		return out
	}
	truncated := false
	if s.Opts.MaxMemTargets > 0 && len(addrs) > s.Opts.MaxMemTargets {
		addrs = addrs[:s.Opts.MaxMemTargets]
		truncated = true
	}
	for _, a := range addrs {
		if !s.feasibleEq(base, a-op.Imm) {
			s.Stats.CountPrune()
			continue
		}
		c := s.fork()
		if !c.constrainOperand(base, isa.CmpEq, a-op.Imm, trace.Reason("load resolves")) {
			s.Stats.CountPrune()
			continue
		}
		c.note(trace.KindFork, trace.LoadAt(a))
		v, _ := c.memOperand(a)
		c.setReg(op.Rt, v.Val, v.Term, v.HasTerm)
		c.PC++
		c.Truncated = c.Truncated || truncated
		out = append(out, c)
	}
	if truncated {
		s.Stats.CountFanout()
		for _, c := range out {
			c.Truncated = true
		}
	}
	s.countFan(obs.ForkLoad, len(out))
	return out
}

// feasibleEq reports whether conjoining "op == v" could leave the path
// satisfiable, without committing anything: the store answers read-only
// (symbolic.Store.AdmitsEq). The enumeration fan-outs (loads, stores, jr)
// ask this before paying for a full state clone, so infeasible candidates
// cost one set lookup instead of a fork. The verdict matches what
// constrainOperand on a clone would return, since the clone's store content
// is identical.
func (s *State) feasibleEq(op symbolic.Operand, v int64) bool {
	if op.Val.IsConcrete() {
		c, _ := op.Val.Concrete()
		return c == v
	}
	if !op.HasTerm {
		return true
	}
	return s.Sym.AdmitsEq(op.Term, v)
}

// countFan records an n-way fan-out as n-1 forks of the given kind (so a
// plain two-way fork and a two-successor enumeration weigh the same).
func (s *State) countFan(kind string, n int) {
	for i := 1; i < n; i++ {
		s.Stats.CountFork(kind)
	}
}

// forkStore resolves a store through an erroneous pointer, which "either
// overwrites the contents of an arbitrary memory location, or creates a new
// value in memory" (Section 5.2).
func (s *State) forkStore(op *isa.Lowered) []*State {
	base := s.regOperand(op.Rs)
	val := s.regOperand(op.Rt)
	var out []*State
	addrs := s.definedAddrsSorted()
	enumAddrs := addrs
	truncated := false
	if s.Opts.MaxMemTargets > 0 && len(enumAddrs) > s.Opts.MaxMemTargets {
		enumAddrs = enumAddrs[:s.Opts.MaxMemTargets]
		truncated = true
	}
	for _, a := range enumAddrs {
		if !s.feasibleEq(base, a-op.Imm) {
			s.Stats.CountPrune()
			continue
		}
		c := s.fork()
		if !c.constrainOperand(base, isa.CmpEq, a-op.Imm, trace.Reason("store resolves")) {
			s.Stats.CountPrune()
			continue
		}
		c.note(trace.KindFork, trace.StoreAt(a))
		c.setMem(a, val.Val, val.Term, val.HasTerm)
		c.PC++
		c.Truncated = c.Truncated || truncated
		out = append(out, c)
	}

	// New-location case: the store defines a word at an address the program
	// has not touched; since loads from undefined addresses fault anyway,
	// the write is unobservable through defined memory.
	fresh := s.fork()
	fresh.note(trace.KindFork, trace.Text("store through erroneous pointer: assume fresh location"))
	if fresh.constrainNotIn(base, addrs, op.Imm, trace.Reason("address not previously defined")) {
		fresh.PC++
		fresh.Truncated = fresh.Truncated || truncated
		out = append(out, fresh)
	} else {
		s.Stats.CountPrune()
	}
	if truncated {
		s.Stats.CountFanout()
		for _, c := range out {
			c.Truncated = true
		}
	}
	s.countFan(obs.ForkStore, len(out))
	return out
}

// forkJr resolves a jump through an erroneous target (Section 5.2): "the
// program either jumps to an arbitrary (but valid) code location or throws
// an illegal instruction exception". ControlFanout is the same fan-out as a
// cursor that builds one child at a time.
func (s *State) forkJr(op *isa.Lowered) []*State {
	target := s.regOperand(op.Rs)
	var out []*State
	limit := s.Prog.Len()
	truncated := false
	if s.Opts.MaxControlTargets > 0 && limit > s.Opts.MaxControlTargets {
		limit = s.Opts.MaxControlTargets
		truncated = true
	}
	for pc := 0; pc < limit; pc++ {
		if !s.feasibleEq(target, int64(pc)) {
			s.Stats.CountPrune()
			continue
		}
		out = append(out, s.jrTarget(target, pc, truncated))
	}
	out = append(out, s.jrInvalid(truncated))
	if truncated {
		s.Stats.CountFanout()
	}
	s.countFan(obs.ForkControl, len(out))
	return out
}

// jrTarget is the child of s's jr through the erroneous target that jumps to
// pc, which feasibleEq admits: the target pinned to pc, with its constraint
// and control notes.
func (s *State) jrTarget(target symbolic.Operand, pc int, truncated bool) *State {
	c := s.fork()
	// feasibleEq admitted pc, and pinning a root it admits never fails.
	c.constrainOperand(target, isa.CmpEq, int64(pc), trace.Reason("control target resolves"))
	c.note(trace.KindControl, trace.Control(s.Prog, pc))
	c.PC = pc
	c.Truncated = truncated
	return c
}

// jrInvalid is the child of s's jr through the erroneous target that
// assumes an invalid code address and raises.
func (s *State) jrInvalid(truncated bool) *State {
	exc := s.fork()
	exc.note(trace.KindFork, trace.Text("erroneous control target: assume invalid code address"))
	exc.raise(isa.ExcIllegalInstr, "jump through erroneous target")
	exc.Truncated = truncated
	return exc
}

func (s *State) forkCheck(det *detector.Detector, target, expr symbolic.Operand) []*State {
	pass, fail := s.forkCmp(obs.ForkDetector, det.Cmp, target, expr, trace.DetectorAt(s.Prog, det))
	var out []*State
	if pass != nil {
		pass.note(trace.KindCheckPass, trace.CheckPass(det))
		pass.PC++
		out = append(out, pass)
	}
	if fail != nil {
		fail.note(trace.KindDetect, trace.Detect(det))
		fail.raise(isa.ExcDetected, detectedDetail(det))
		fail.Exc.Detector = det.ID
		out = append(out, fail)
	}
	return out
}

// detectedDetail is the exception detail of a state detector d terminated.
func detectedDetail(d *detector.Detector) string {
	return "detector " + strconv.FormatInt(d.ID, 10) + ": " + d.String()
}
