// Package analysis implements static program analysis over the SymPLFIED
// assembly language: control-flow graph construction, backward register
// liveness, reaching definitions, and a diagnostics pass (Lint) that surfaces
// detector-coverage holes before any symbolic exploration runs.
//
// The paper prunes its 800x32 register campaign to "the register(s) used by
// the instruction" purely syntactically (Section 6.1). Dataflow liveness goes
// further: an injection into a register that is dead at the injection point —
// written before it is read on every path — provably cannot change the
// execution. The checker elides such injections through the compositional
// fault summaries of internal/summary, whose taint proof covers every dead
// register at every site the function partition reaches, and more; liveness
// itself serves -analyze, the lint pass and the hardening pass. The lint
// pass closes the loop on the paper's detector model (Section 5.3): a CHECK
// annotation that can never execute, or one that guards a value no
// subsequent instruction reads, is a silent coverage hole this package
// reports statically.
//
// # Diagnostic codes
//
// Every Diag carries one of these stable, kebab-case codes (the Code*
// constants in lint.go; tools/analyzers/diagcodes enforces the registry):
//
//   - unreachable-code: instructions no path from entry executes.
//   - unreachable-detector: a CHECK that can never run, so its detector
//     cannot fire.
//   - unknown-detector: a CHECK naming a detector the table does not define;
//     the check always throws.
//   - unused-detector: a detector no CHECK references.
//   - dead-guard: a CHECK validating a register that is dead immediately
//     after it — nothing reads the guarded value.
//   - falls-off-end: control can run past the last instruction.
//   - bad-branch-target: a branch whose resolved target is outside the
//     program.
//   - uninitialized-read: a read of a register no path from entry writes.
//   - dead-store: a register write nothing ever reads.
//   - undetected-escape-window: a live value that, if corrupted anywhere in
//     its definition-to-use window, can reach program output or control flow
//     with no CHECK reading it first (see Gaps; internal/harden synthesizes
//     detectors to close these).
package analysis

import (
	"math/bits"
	"strings"
	"sync"

	"symplfied/internal/detector"
	"symplfied/internal/isa"
)

// RegSet is a set of architectural registers as a bitmask. The machine model
// has 32 registers (isa.NumRegs), so one word suffices. The hardwired zero
// register is never a member: it cannot hold an injected error and reads of
// it are constant.
type RegSet uint32

// AllRegs is the set of every architectural register except $0.
const AllRegs RegSet = (1<<isa.NumRegs - 1) &^ 1

// Add returns s with r added. Adding RegZero is a no-op.
func (s RegSet) Add(r isa.Reg) RegSet {
	if r == isa.RegZero || !r.Valid() {
		return s
	}
	return s | 1<<r
}

// Has reports whether r is in the set.
func (s RegSet) Has(r isa.Reg) bool {
	return r != isa.RegZero && r.Valid() && s&(1<<r) != 0
}

// Union returns the union of s and t.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// Remove returns s without r.
func (s RegSet) Remove(r isa.Reg) RegSet { return s &^ (1 << r) }

// Len returns the number of registers in the set.
func (s RegSet) Len() int { return bits.OnesCount32(uint32(s)) }

// Regs returns the members in ascending order.
func (s RegSet) Regs() []isa.Reg {
	out := make([]isa.Reg, 0, s.Len())
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// String renders the set as "{$1 $5 $31}".
func (s RegSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.Regs() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(r.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Analysis holds every per-instruction dataflow fact computed over one
// program (with its detector table, whose expressions count as register
// reads at their CHECK sites). Build it once with Analyze and share it: the
// structure is immutable after construction.
type Analysis struct {
	Prog      *isa.Program
	Detectors *detector.Table

	// CFG is the control-flow graph (basic blocks + per-PC successors).
	CFG *CFG

	// PostDom is the post-dominator tree over CFG blocks, with the merge
	// points (rejoin pcs of branching blocks) state merging defers at.
	PostDom *PostDom

	// LiveIn[pc] is the set of registers live just before the instruction at
	// pc executes — exactly the set a register injection at pc can influence.
	// LiveOut[pc] is the set live after it.
	LiveIn, LiveOut []RegSet

	// NeverWritten[pc] is the set of registers no path from entry to pc
	// defines: only their boot value (the machine zeroes the register file)
	// can reach pc. The one-bit-per-register dual of reaching definitions;
	// Lint uses it to flag reads of never-written registers.
	NeverWritten []RegSet

	// Demand-computed passes (Gaps, Consts): built on first use so callers
	// that only need liveness never pay for them, cached so the structure
	// stays shareable.
	gapsOnce   sync.Once
	gaps       []Gap
	constsOnce sync.Once
	consts     *Consts
	dynOnce    sync.Once
	dyn        []int
}

// Analyze builds the CFG and runs the dataflow passes. A nil detector table
// is treated as empty (a CHECK naming an unknown detector throws and halts,
// so it reads nothing).
func Analyze(prog *isa.Program, dets *detector.Table) *Analysis {
	if dets == nil {
		dets = detector.EmptyTable()
	}
	a := &Analysis{Prog: prog, Detectors: dets}
	a.CFG = buildCFG(prog, dets)
	a.PostDom = computePostDom(a.CFG)
	a.computeLiveness()
	a.computeNeverWritten()
	return a
}

// Uses returns the registers the instruction at pc reads, including the
// registers a CHECK's detector reads (its target, when a register, and every
// register reference in its expression — the paper's Section 5.3 detector
// grammar).
func (a *Analysis) Uses(pc int) RegSet {
	var s RegSet
	in := a.Prog.At(pc)
	for _, r := range in.SrcRegs() {
		s = s.Add(r)
	}
	if in.Op == isa.OpCheck {
		if d, ok := a.Detectors.Lookup(in.Imm); ok {
			s = s.Union(detectorUses(d))
		}
	}
	return s
}

// Defs returns the registers the instruction at pc writes.
func (a *Analysis) Defs(pc int) RegSet {
	var s RegSet
	for _, r := range a.Prog.At(pc).DstRegs() {
		s = s.Add(r)
	}
	return s
}

// DeadAt reports whether register r is dead just before the instruction at
// pc: every path from pc writes r before reading it (or never touches it
// again). An injection of err into a dead register is provably benign — the
// erroneous value is overwritten or ignored on every continuation. pc values
// outside the program are never dead (conservative).
func (a *Analysis) DeadAt(pc int, r isa.Reg) bool {
	if pc < 0 || pc >= len(a.LiveIn) || r == isa.RegZero || !r.Valid() {
		return false
	}
	return !a.LiveIn[pc].Has(r)
}

// DetectorReads reports what detector d dereferences when its CHECK runs:
// the set of registers it reads (its target register plus every RegRef in
// its expression) and whether it reads memory (a MemRef in the expression or
// a memory target). Clients propagating error taint through CHECKs
// (internal/summary) need the memory half, which liveness ignores.
func DetectorReads(d *detector.Detector) (regs RegSet, readsMem bool) {
	return detectorUses(d), d.Target.IsMem || exprReadsMem(d.Expr)
}

// exprReadsMem reports whether a detector expression contains a MemRef.
func exprReadsMem(e detector.Expr) bool {
	switch e := e.(type) {
	case detector.MemRef:
		return true
	case detector.BinExpr:
		return exprReadsMem(e.L) || exprReadsMem(e.R)
	}
	return false
}

// detectorUses collects the registers detector d reads when its CHECK runs.
func detectorUses(d *detector.Detector) RegSet {
	var s RegSet
	if !d.Target.IsMem {
		s = s.Add(d.Target.Reg)
	}
	return s.Union(exprRegs(d.Expr))
}

// exprRegs collects the register references in a detector expression.
func exprRegs(e detector.Expr) RegSet {
	switch e := e.(type) {
	case detector.RegRef:
		return RegSet(0).Add(e.R)
	case detector.BinExpr:
		return exprRegs(e.L).Union(exprRegs(e.R))
	}
	return 0
}
