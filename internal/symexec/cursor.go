package symexec

import (
	"slices"

	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/symbolic"
)

// ControlFan is the fan-out of a jump through an erroneous target as a
// cursor. forkJr builds every child up front, each a clone with its own
// constraint store and two trace notes, although pinning the target leaves
// most children err-free, and most of those run straight to a terminal on
// the concrete machine and are dropped. A cursor builds each child only when
// the search reaches it (Next), runs an err-free one in place in a Scratch,
// and builds its real state only if it outlives its turn (Materialize). The
// children come in forkJr's order, and ControlFanout counts the prunes and
// forks forkJr counts, when forkJr counts them.
type ControlFan struct {
	parent *State // at the jr; never written while the cursor lives
	target symbolic.Operand
	pc     int // next candidate target
	left   int // children not produced yet, the invalid-address one included
}

// Scratch is the one state a search runs its in-place children in, one at a
// time. It keeps its memory table and output buffer from child to child, so
// a child that terminates unkept allocates nothing of its own.
type Scratch struct {
	st    State
	empty symbolic.Store // the in-place child's store: no err anywhere
	exc   isa.Exception  // st.Exc, when its run raised
	fan   *ControlFan    // the fan-out st is a child of
	pc    int            // the target st jumped to
}

// ControlFanout returns the fan-out of s's next step as a cursor when that
// step is a jr through an erroneous target that no MaxControlTargets cap
// truncates, no location is stuck-at, and the target's root is the store's
// sole root (symbolic.Store.SoleRoot), so pinning the target leaves no err.
// It counts the fan-out's prunes and forks now, as forkJr does. Otherwise it
// returns false, having counted nothing, and Successors builds the fan-out.
// s must not be written while the cursor lives.
func (s *State) ControlFanout() (*ControlFan, bool) {
	if !s.Running() || s.Steps >= s.Opts.Watchdog || !s.Prog.ValidPC(s.PC) || len(s.Stuck) > 0 {
		return nil, false
	}
	op := &s.Prog.Code()[s.PC]
	n := s.Prog.Len()
	if op.Kind != isa.KindJr || !s.Regs[op.Rs].IsErr() ||
		(s.Opts.MaxControlTargets > 0 && n > s.Opts.MaxControlTargets) {
		return nil, false
	}
	target := s.regOperand(op.Rs)
	if !target.HasTerm || !s.Sym.SoleRoot(target.Term.Root) {
		return nil, false
	}
	f := &ControlFan{parent: s, target: target, left: 1}
	for pc := 0; pc < n; pc++ {
		if s.feasibleEq(target, int64(pc)) {
			f.left++
		} else {
			s.Stats.CountPrune()
		}
	}
	s.countFan(obs.ForkControl, f.left)
	return f, true
}

// Left returns how many children the cursor has not produced yet.
func (f *ControlFan) Left() int { return f.left }

// Next produces the cursor's next child; Left must be positive. A target
// whose pin leaves the child err-free is built in place in sc, and is valid
// until the next Next with sc: the parent's registers with the pinned
// locations written (symbolic.Store.Pinned), its memory refilled into sc's
// table, its output copied into sc's buffer, an empty store and no trace;
// an exception its run raises is written into sc. Any other child, the
// invalid-address one or a target whose pin leaves err somewhere, is built
// as forkJr builds it.
func (f *ControlFan) Next(sc *Scratch) *State {
	p := f.parent
	f.left--
	for f.pc < p.Prog.Len() && !p.feasibleEq(f.target, int64(f.pc)) {
		f.pc++
	}
	if f.pc == p.Prog.Len() {
		return p.jrInvalid(false)
	}
	pc := f.pc
	f.pc++
	c := &sc.st
	c.Regs = p.Regs
	c.Mem.Refill(&p.Mem)
	if !p.Sym.Pinned(f.target.Term, int64(pc), c.setExact) {
		return p.jrTarget(f.target, pc, false)
	}
	c.Prog, c.Dets, c.Opts, c.Stats = p.Prog, p.Dets, p.Opts, p.Stats
	c.PC, c.Sym, c.In, c.InPos = pc, &sc.empty, p.In, p.InPos
	c.Out = append(c.Out[:0], p.Out...)
	c.Steps, c.Status, c.Exc = p.Steps+1, machine.StatusRunning, nil
	c.Trace, c.Stuck, c.Truncated = nil, nil, false
	c.scratch = sc
	sc.fan, sc.pc = f, pc
	return c
}

// Materialize returns the state s stands for: s itself, unless s is a
// scratch child (Next). Then it builds the child's real state now, the fork
// with its constraint store and its constraint and control notes exactly as
// forkJr builds it, carried to where the in-place run has taken s: its pc,
// registers, private copies of its memory and output, steps, status and
// exception, and the halt or exception note the run deferred. The caller
// goes on with the returned state in place of s.
func (s *State) Materialize() *State {
	sc := s.scratch
	if sc == nil {
		return s
	}
	c := sc.fan.parent.jrTarget(sc.fan.target, sc.pc, false)
	c.PC, c.Regs, c.InPos, c.Steps, c.Status = s.PC, s.Regs, s.InPos, s.Steps, s.Status
	if s.Exc != nil {
		exc := *s.Exc
		c.Exc = &exc
	}
	c.Mem = isa.Memory{}
	c.Mem.CopyFrom(&s.Mem)
	c.Out = slices.Clone(s.Out)
	c.noteStop()
	return c
}

// InPlace reports whether s is a scratch child Materialize has not built.
func (s *State) InPlace() bool { return s.scratch != nil }
