package summary

import (
	"sync"

	"symplfied/internal/analysis"
	"symplfied/internal/isa"
)

// flowState is the dataflow fact at one program point: which registers may
// carry the err, and whether the memory class may.
type flowState struct {
	regs analysis.RegSet
	mem  bool
}

func (st flowState) empty() bool { return st.regs == 0 && !st.mem }

func (st flowState) union(o flowState) flowState {
	return flowState{regs: st.regs.Union(o.regs), mem: st.mem || o.mem}
}

// propagate runs the forward may-taint dataflow inside function fi, seeding
// state seed just before the instruction at seedPC executes, and returns the
// composed local result: effects reached, and the taint escaping through the
// function's `jr $31` exits. Callee summaries substitute for jal descents.
// Not memoized — the SCC fixpoint calls it while summaries are still
// growing; pointEffect adds memoization once the set is final.
func (s *Set) propagate(fi, seedPC int, seed flowState) LocEffect {
	f := s.Funcs.Funcs[fi]
	if f.Opaque {
		return maximalEffect
	}
	var out LocEffect
	if seed.empty() || !f.Contains(seedPC) {
		return out
	}
	states := map[int]flowState{seedPC: seed}
	work := []int{seedPC}
	var buf [4]int
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		st, eff, isExit := s.transfer(pc, states[pc])
		out.Effects |= eff
		if isExit {
			out.Out = out.Out.Union(st.regs)
			out.MemOut = out.MemOut || st.mem
			continue
		}
		if st.empty() {
			continue // the taint died: nothing left to follow
		}
		for _, succ := range s.Funcs.IntraSuccs(pc, buf[:0]) {
			joined := states[succ].union(st)
			if joined != states[succ] {
				states[succ] = joined
				work = append(work, succ)
			}
		}
	}
	return out
}

// transfer applies one instruction to a taint state, returning the state
// after it, the effects the tainted inputs can reach at it, and whether the
// instruction is a function exit (jr $31) whose incoming state escapes.
func (s *Set) transfer(pc int, st flowState) (flowState, Effect, bool) {
	in := s.Funcs.Prog.At(pc)
	var eff Effect
	switch in.Op {
	case isa.OpJr:
		// Only jr $31 appears in non-opaque bodies. A tainted return
		// address is arbitrary control transfer.
		if st.regs.Has(isa.RegRA) {
			eff |= EffControl
		}
		return st, eff, true

	case isa.OpJal:
		// The link kills any taint in $31, then the callee's summary
		// substitutes for descending into it.
		st.regs = st.regs.Remove(isa.RegRA)
		callee, ok := s.Funcs.byEntry[in.Target]
		if !ok {
			return st, EffAll, false // invalid target: opaque guard fired
		}
		if st.empty() {
			return st, eff, false
		}
		cs := s.sums[callee]
		liveComposed.Inc()
		if cs.Opaque {
			return flowState{regs: analysis.AllRegs, mem: true}, eff | EffAll, false
		}
		var acc LocEffect
		for _, r := range st.regs.Regs() {
			le := cs.Regs[r]
			acc.Effects |= le.Effects
			acc.Out = acc.Out.Union(le.Out)
			acc.MemOut = acc.MemOut || le.MemOut
		}
		if st.mem {
			acc.Effects |= cs.Mem.Effects
			acc.Out = acc.Out.Union(cs.Mem.Out)
			acc.MemOut = acc.MemOut || cs.Mem.MemOut
		}
		eff |= acc.Effects
		// The callee may leave caller-held taint untouched (we do not track
		// must-kills across calls), so the caller's taint persists and the
		// callee's escaping taint joins it.
		st.regs = st.regs.Union(acc.Out)
		st.mem = st.mem || acc.MemOut
		return st, eff, false

	case isa.OpLd:
		// rt := M[R[rs]+imm]. A tainted address can fault or alias any
		// word; a tainted memory class taints the loaded value.
		if st.regs.Has(in.Rs) {
			eff |= EffControl
			st.regs = st.regs.Add(in.Rt)
		} else if st.mem {
			st.regs = st.regs.Add(in.Rt)
		} else {
			st.regs = st.regs.Remove(in.Rt)
		}
		return st, eff, false

	case isa.OpSt:
		// M[R[rs]+imm] := rt. A tainted address can fault or clobber any
		// word; a tainted value taints the memory class.
		if st.regs.Has(in.Rs) {
			eff |= EffControl
			st.mem = true
		}
		if st.regs.Has(in.Rt) {
			st.mem = true
		}
		return st, eff, false

	case isa.OpBeq, isa.OpBne, isa.OpBeqi, isa.OpBnei:
		for _, r := range in.SrcRegs() {
			if st.regs.Has(r) {
				eff |= EffControl
				break
			}
		}
		return st, eff, false

	case isa.OpPrint:
		for _, r := range in.SrcRegs() {
			if st.regs.Has(r) {
				eff |= EffOutput
				break
			}
		}
		return st, eff, false

	case isa.OpCheck:
		d, ok := s.Funcs.Dets.Lookup(in.Imm)
		if !ok {
			// Unknown detector: the check throws identically in the faulty
			// and fault-free run; the taint reaches nothing through it.
			return st, eff, false
		}
		regs, readsMem := analysis.DetectorReads(d)
		if st.regs&regs != 0 || (readsMem && st.mem) {
			eff |= EffDetector
		}
		return st, eff, false

	default:
		// Arithmetic, logic, moves, reads: tainted sources taint the
		// destinations; untainted sources kill them. A tainted divisor can
		// fault (divide semantics diverge), which is a control effect.
		if (in.Op == isa.OpDiv || in.Op == isa.OpMod) && st.regs.Has(in.Rt) {
			eff |= EffControl
		}
		tainted := false
		for _, r := range in.SrcRegs() {
			if st.regs.Has(r) {
				tainted = true
				break
			}
		}
		for _, dst := range in.DstRegs() {
			if tainted {
				st.regs = st.regs.Add(dst)
			} else {
				st.regs = st.regs.Remove(dst)
			}
		}
		return st, eff, false
	}
}

// pointMemo caches propagate results for arbitrary seed points; only valid
// once every summary is final (after Build's bottom-up pass).
type pointMemo struct {
	mu sync.RWMutex
	m  map[pointKey]LocEffect
}

type pointKey struct {
	fi, pc int
	loc    taintLoc
}

func newPointMemo() *pointMemo { return &pointMemo{m: make(map[pointKey]LocEffect)} }

// pointEffect is the memoized propagate of a single-location seed at an
// arbitrary pc of function fi.
func (s *Set) pointEffect(fi, pc int, loc taintLoc) LocEffect {
	k := pointKey{fi: fi, pc: pc, loc: loc}
	s.points.mu.RLock()
	le, ok := s.points.m[k]
	s.points.mu.RUnlock()
	if ok {
		return le
	}
	seed := flowState{mem: true}
	if loc != locMem {
		seed = flowState{regs: analysis.RegSet(0).Add(isa.Reg(loc))}
	}
	le = s.propagate(fi, pc, seed)
	s.points.mu.Lock()
	s.points.m[k] = le
	s.points.mu.Unlock()
	return le
}

// buildCont resolves the continuation fixpoint: cont[i][loc] is the effect
// of err residing in loc at the moment function i returns. A return resumes
// at a caller's call-site continuation; a function that itself calls may
// additionally return to any call continuation program-wide ($31 could hold
// the link of the last executed jal when the restore discipline is bent),
// and a returning function with no known caller gets the maximal effect
// (the continuation is outside the partition's knowledge).
func (s *Set) buildCont() {
	n := len(s.Funcs.Funcs)
	s.cont = make([][locMem + 1]Effect, n)
	for changed := true; changed; {
		changed = false
		for fi, f := range s.Funcs.Funcs {
			if len(f.Exits) == 0 {
				continue // never returns; cont is never consulted
			}
			for loc := taintLoc(1); loc <= locMem; loc++ {
				e := s.contOnce(fi, loc)
				if e != s.cont[fi][loc] {
					s.cont[fi][loc] = e
					changed = true
				}
			}
		}
	}
}

// contOnce evaluates one continuation-effect equation against the current
// cont iterate.
func (s *Set) contOnce(fi int, loc taintLoc) Effect {
	f := s.Funcs.Funcs[fi]
	callers := s.Funcs.Callers(fi)
	var e Effect
	if len(callers) == 0 {
		e |= EffAll // returning into the unknown (e.g. top-level jr)
	}
	for _, c := range callers {
		e |= s.afterEffect(c.Index, c.PC+1, loc)
	}
	if f.HasCall {
		for gi, g := range s.Funcs.Funcs {
			for _, cs := range g.Calls {
				e |= s.afterEffect(gi, cs.PC+1, loc)
			}
		}
	}
	return e
}

// afterEffect composes the whole-program effect of err residing in loc just
// before pc of function fi: the local propagation, plus — for taint that
// escapes fi's exits — the continuation effects of fi itself. A pc outside
// the body (a call continuation that falls off the program) diverges
// identically in the faulty and fault-free run, so it contributes nothing.
func (s *Set) afterEffect(fi, pc int, loc taintLoc) Effect {
	f := s.Funcs.Funcs[fi]
	if !f.Contains(pc) {
		return 0
	}
	if f.Opaque {
		return EffAll
	}
	le := s.pointEffect(fi, pc, loc)
	e := le.Effects
	for _, r := range le.Out.Regs() {
		e |= s.cont[fi][taintLoc(r)]
	}
	if le.MemOut {
		e |= s.cont[fi][locMem]
	}
	return e
}

// EffectOf returns the composed whole-program effect of an err injected
// into register r just before the instruction at pc executes (any
// occurrence), and whether the site was classifiable at all. An
// unclassifiable site (invalid pc or register, or a pc no discovered
// function covers) returns the maximal effect with ok=false. A zero effect
// with ok=true is a proof the injection is benign — under the calling
// convention stated on Partition.
func (s *Set) EffectOf(pc int, r isa.Reg) (e Effect, ok bool) {
	if r == isa.RegZero || !r.Valid() || !s.Funcs.Prog.ValidPC(pc) {
		return EffAll, false
	}
	return s.effectAt(pc, taintLoc(r))
}

// EffectOfMem is EffectOf for an err resident in the memory class at pc.
// The class is coarse (one bit for all of memory), so memory verdicts are
// conservative: any downstream load taints its destination.
func (s *Set) EffectOfMem(pc int) (e Effect, ok bool) {
	if !s.Funcs.Prog.ValidPC(pc) {
		return EffAll, false
	}
	return s.effectAt(pc, locMem)
}

func (s *Set) effectAt(pc int, loc taintLoc) (Effect, bool) {
	fis := s.Funcs.Containing(pc)
	if len(fis) == 0 {
		return EffAll, false
	}
	var e Effect
	for _, fi := range fis {
		e |= s.afterEffect(fi, pc, loc)
	}
	return e, true
}
