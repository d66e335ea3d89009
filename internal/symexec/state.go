// Package symexec implements SymPLFIED's symbolic execution engine: the
// nondeterministic part of the paper's model (Sections 3.2 and 5.2). A State
// is one node of the search graph explored by the model checker; Successors
// computes its rewrite successors, forking at comparisons over err, at loads
// and stores through erroneous pointers, at control transfers to erroneous
// targets, and at divisions by erroneous divisors, while the constraint store
// prunes infeasible forks.
package symexec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/symbolic"
	"symplfied/internal/trace"
)

// Options configures symbolic execution. The zero value is NOT valid; use
// DefaultOptions.
type Options struct {
	// Watchdog bounds executed instructions per path (the paper's timeout,
	// Section 5.4). Exceeding it raises the "timed out" exception.
	Watchdog int
	// AffineTracking enables the refined constraint solver that tracks
	// propagated err values as affine terms of their root (see package
	// symbolic). Disabling it reproduces the paper's coarser single-symbol
	// model, for ablation.
	AffineTracking bool
	// MaxControlTargets caps the fork fan-out when a control transfer target
	// is err (paper: "jumps to an arbitrary but valid code location"). 0
	// means every valid code location. When the cap truncates enumeration,
	// the state is annotated so reports never silently under-count.
	MaxControlTargets int
	// MaxMemTargets caps the fork fan-out when a load/store address is err
	// (paper: "retrieves/overwrites the contents of an arbitrary memory
	// location"). 0 means every defined location.
	MaxMemTargets int
	// SymbolicMem, when true, models a load through an erroneous pointer as
	// returning a fresh err instead of enumerating defined locations. This
	// is a sound over-approximation that trades precision for state count.
	SymbolicMem bool
}

// DefaultOptions returns the options used throughout the paper reproduction.
func DefaultOptions() Options {
	return Options{
		Watchdog:       machine.DefaultWatchdog,
		AffineTracking: true,
	}
}

// State is one symbolic machine state: the paper's "soup" of PC, register
// file, memory, input/output streams, plus the ConstraintMap and the
// decision trace. States are persistent: Successors never mutates its
// receiver.
type State struct {
	Prog *isa.Program
	Dets *detector.Table
	Opts Options

	PC   int
	Regs [isa.NumRegs]isa.Value
	// Mem is the memory image. After a Clone it shares its table
	// copy-on-write with the state it was forked from (isa.Memory.Clone).
	Mem   isa.Memory
	Sym   *symbolic.Store
	In    []isa.Value // shared, immutable
	InPos int
	Out   []machine.OutItem
	Steps int

	// Stuck marks locations with a permanent (stuck-at) fault: the cell
	// holds an unknown-but-fixed erroneous value, so writes to it are
	// discarded and every read observes the same symbolic root. Transient
	// errors (the paper's primary model) never populate this; permanent
	// errors are the paper's future-work extension (2). The map is never
	// written once set, so clones share it: InjectPermanent replaces it.
	Stuck map[isa.Loc]struct{}

	Status machine.Status
	Exc    *isa.Exception
	Trace  *trace.Node

	// Truncated is set when a fork fan-out cap dropped successors, so the
	// search report can flag incomplete coverage instead of silently
	// under-counting.
	Truncated bool

	// Stats, when non-nil, tallies fork/prune/truncation events for the
	// observability layer. The pointer is shared by every state forked from
	// the same search (Clone propagates it), so one injection's whole BFS
	// accumulates into a single ExecStats. It deliberately lives here and
	// not in Options: Options participates in the campaign fingerprint,
	// and a pointer there would hash its address.
	Stats *obs.ExecStats

	// scratch is set while the state is a Scratch's in-place child of a
	// control fan-out (ControlFan.Next): it stands for a child Materialize
	// has not built yet. Clone does not copy it.
	scratch *Scratch
}

// NewState builds an initial symbolic state at PC 0 with the given input.
func NewState(prog *isa.Program, dets *detector.Table, input []int64, opts Options) *State {
	if dets == nil {
		dets = noDetectors
	}
	if opts.Watchdog <= 0 {
		opts.Watchdog = machine.DefaultWatchdog
	}
	in := make([]isa.Value, len(input))
	for i, v := range input {
		in[i] = isa.Int(v)
	}
	return &State{
		Prog:   prog,
		Dets:   dets,
		Opts:   opts,
		Sym:    symbolic.NewStore(),
		In:     in,
		Status: machine.StatusRunning,
	}
}

// noDetectors is the detector table of a state given none. Tables are
// read-only once built, so every such state shares this one.
var noDetectors = detector.EmptyTable()

// FromMachine lifts a concrete machine's current state into a symbolic state,
// used by the checker after concretely executing the prefix up to the
// injection breakpoint (the paper's optimization of injecting just before the
// instruction that uses the target register, Section 6.2). The state gets a
// private copy of the machine's memory, so the machine may be restored or
// run on, and shares the machine's unread input.
func FromMachine(m *machine.Machine, dets *detector.Table, opts Options) *State {
	if dets == nil {
		dets = noDetectors
	}
	if opts.Watchdog <= 0 {
		opts.Watchdog = machine.DefaultWatchdog
	}
	st := &State{
		Prog:   m.Program(),
		Dets:   dets,
		Opts:   opts,
		PC:     m.PC(),
		Sym:    symbolic.NewStore(),
		In:     m.UnreadInput(),
		Out:    m.Output(),
		Steps:  m.Steps(),
		Status: machine.StatusRunning,
	}
	m.CopyMem(&st.Mem)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		st.Regs[r] = m.Reg(r)
	}
	return st
}

// Clone returns a logically independent copy sharing immutable pieces
// (program, detector table, input stream, trace prefix, stuck-at set)
// eagerly, the output stream as a full slice (Out is only ever appended to,
// and an append to a slice at capacity reallocates, so neither side sees the
// other's), and the mutable memory image and constraint store copy-on-write:
// both sides keep referencing the same tables until one of them writes, which
// copies first. Forks at comparisons and control transfers never touch
// memory before the next store instruction, so most clones never pay for the
// memory copy. States of one search belong to one goroutine, so the sharing
// needs no synchronization.
func (s *State) Clone() *State {
	out := &State{
		Prog:      s.Prog,
		Dets:      s.Dets,
		Opts:      s.Opts,
		PC:        s.PC,
		Regs:      s.Regs,
		Mem:       s.Mem.Clone(),
		Sym:       s.Sym.Clone(),
		In:        s.In,
		InPos:     s.InPos,
		Out:       s.Out[:len(s.Out):len(s.Out)],
		Steps:     s.Steps,
		Status:    s.Status,
		Exc:       s.Exc,
		Trace:     s.Trace,
		Truncated: s.Truncated,
		Stats:     s.Stats,
		Stuck:     s.Stuck,
	}
	return out
}

// Running reports whether the state can still take a step.
func (s *State) Running() bool { return s.Status == machine.StatusRunning }

// note appends a trace event at the current step and pc. The payload holds
// the event's facts; its text is rendered only if the trace is read.
func (s *State) note(kind trace.Kind, p trace.Payload) {
	s.Trace = s.Trace.Add(kind, s.Steps, s.PC, p)
}

// Note appends a trace event with formatted text; exported for the fault
// model and the checker.
func (s *State) Note(kind trace.Kind, format string, args ...any) {
	s.note(kind, trace.Text(fmt.Sprintf(format, args...)))
}

// Inject places err into loc and returns the fresh root, recording the event.
func (s *State) Inject(loc isa.Loc) symbolic.RootID {
	root := s.Sym.Inject(loc)
	if loc.IsMem {
		s.Mem.Store(loc.Addr, isa.Err())
	} else if loc.Reg != isa.RegZero {
		s.Regs[loc.Reg] = isa.Err()
	}
	s.note(trace.KindInject, trace.Inject(s.Prog, root, loc))
	return root
}

// regOperand reads register r as a propagation operand.
func (s *State) regOperand(r isa.Reg) symbolic.Operand {
	v := s.Regs[r]
	if r == isa.RegZero {
		v = isa.Int(0)
	}
	if n, ok := v.Concrete(); ok {
		return symbolic.ConcreteOperand(n)
	}
	if t, ok := s.Sym.Term(isa.RegLoc(r)); ok {
		return symbolic.ErrOperand(t)
	}
	return symbolic.Operand{Val: isa.Err()}
}

// memOperand reads the memory word at addr as a propagation operand.
func (s *State) memOperand(addr int64) (symbolic.Operand, bool) {
	v, ok := s.Mem.Load(addr)
	if !ok {
		return symbolic.Operand{}, false
	}
	if n, okc := v.Concrete(); okc {
		return symbolic.ConcreteOperand(n), true
	}
	if t, okt := s.Sym.Term(isa.MemLoc(addr)); okt {
		return symbolic.ErrOperand(t), true
	}
	return symbolic.Operand{Val: isa.Err()}, true
}

// RegOperand implements detector.Env.
func (s *State) RegOperand(r isa.Reg) symbolic.Operand { return s.regOperand(r) }

// MemOperand implements detector.Env.
func (s *State) MemOperand(addr int64) (symbolic.Operand, bool) { return s.memOperand(addr) }

var _ detector.Env = (*State)(nil)

// InjectPermanent places a stuck-at fault into loc: the location reads as
// the same unknown erroneous value forever, and writes to it are discarded.
// The stuck-at set may be shared with clones, so it is replaced, not written.
func (s *State) InjectPermanent(loc isa.Loc) symbolic.RootID {
	root := s.Inject(loc)
	stuck := make(map[isa.Loc]struct{}, len(s.Stuck)+1)
	for l := range s.Stuck {
		stuck[l] = struct{}{}
	}
	stuck[loc] = struct{}{}
	s.Stuck = stuck
	s.note(trace.KindNote, trace.Stuck(loc))
	return root
}

// stuck reports whether loc carries a permanent fault.
func (s *State) stuck(loc isa.Loc) bool {
	_, ok := s.Stuck[loc]
	return ok
}

// setReg writes a propagation result into register r, maintaining the
// invariant that every err-holding location has a term in the store and
// every concrete one has none. Writes to $0 and to a permanently faulty
// register are discarded.
func (s *State) setReg(r isa.Reg, val isa.Value, term symbolic.Term, hasTerm bool) {
	if !val.IsErr() {
		s.setRegInt(r, val.MustConcrete())
		return
	}
	if r == isa.RegZero || s.stuck(isa.RegLoc(r)) {
		return
	}
	s.Regs[r] = val
	if !hasTerm {
		term = symbolic.FreshTerm(s.Sym.NewRoot())
	}
	s.Sym.SetTerm(isa.RegLoc(r), term)
}

// setMem writes a propagation result into memory, maintaining the term
// invariant. Writes to a permanently faulty word are discarded.
func (s *State) setMem(addr int64, val isa.Value, term symbolic.Term, hasTerm bool) {
	if !val.IsErr() {
		s.setMemInt(addr, val.MustConcrete())
		return
	}
	if s.stuck(isa.MemLoc(addr)) {
		return
	}
	s.Mem.Store(addr, val)
	if !hasTerm {
		term = symbolic.FreshTerm(s.Sym.NewRoot())
	}
	s.Sym.SetTerm(isa.MemLoc(addr), term)
}

// setRegInt writes a concrete value into register r. By the term invariant
// only an err register can hold a term, so only overwriting err touches the
// store. Writes to $0 and to a permanently faulty register are discarded.
func (s *State) setRegInt(r isa.Reg, n int64) {
	if r == isa.RegZero || (len(s.Stuck) > 0 && s.stuck(isa.RegLoc(r))) {
		return
	}
	if s.Regs[r].IsErr() {
		s.Sym.Clear(isa.RegLoc(r))
	}
	s.Regs[r] = isa.Int(n)
}

// setMemInt writes a concrete value into memory, touching the store only
// when it overwrites err (see setRegInt).
func (s *State) setMemInt(addr int64, n int64) {
	if len(s.Stuck) > 0 && s.stuck(isa.MemLoc(addr)) {
		return
	}
	if s.Sym.HasTerms() {
		if old, ok := s.Mem.Load(addr); ok && old.IsErr() {
			s.Sym.Clear(isa.MemLoc(addr))
		}
	}
	s.Mem.Store(addr, isa.Int(n))
}

// setExact writes the value a location holds once the constraint just
// conjoined on its root pins it (symbolic.Store.ConcretizeRoot, which clears
// the location's term).
func (s *State) setExact(loc isa.Loc, v int64) {
	if loc.IsMem {
		s.Mem.Store(loc.Addr, isa.Int(v))
	} else if loc.Reg != isa.RegZero {
		s.Regs[loc.Reg] = isa.Int(v)
	}
}

// raise terminates the state with an exception.
func (s *State) raise(kind isa.ExceptionKind, detail string) {
	s.Status = machine.StatusExcepted
	s.Exc = &isa.Exception{Kind: kind, PC: s.PC, Detail: detail}
	s.note(trace.KindException, trace.Exception(s.Exc))
}

// FiredDetector returns the ID of the detector that terminated this state,
// when the state was detected by an attributed CHECK. Coverage attribution
// (which detector catches which injection) folds these into
// checker.InjectionReport.DetectorHits.
func (s *State) FiredDetector() (int64, bool) {
	if s.Exc != nil && s.Exc.Kind == isa.ExcDetected && s.Exc.Detector != 0 {
		return s.Exc.Detector, true
	}
	return 0, false
}

// OutputString renders the output stream.
func (s *State) OutputString() string { return machine.RenderOutput(s.Out) }

// OutputValues returns printed values (no string literals).
func (s *State) OutputValues() []isa.Value { return machine.OutputValues(s.Out) }

// OutputContainsErr reports whether any printed value is err.
func (s *State) OutputContainsErr() bool {
	for _, o := range s.Out {
		if !o.IsStr && o.Val.IsErr() {
			return true
		}
	}
	return false
}

// Key returns a canonical encoding of the state for visited-set dedup.
func (s *State) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pc%d|s%d|i%d|", s.PC, s.Steps, s.InPos)
	for r := 0; r < isa.NumRegs; r++ {
		b.WriteString(s.Regs[r].String())
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, a := range s.definedAddrsSorted() {
		v, _ := s.Mem.Load(a)
		b.WriteString(strconv.FormatInt(a, 10))
		b.WriteByte('=')
		b.WriteString(v.String())
		b.WriteByte(',')
	}
	b.WriteByte('|')
	b.WriteString(s.Sym.Key())
	b.WriteByte('|')
	b.WriteString(s.OutputString())
	fmt.Fprintf(&b, "|%d", s.Status)
	if len(s.Stuck) > 0 {
		locs := make([]string, 0, len(s.Stuck))
		for l := range s.Stuck {
			locs = append(locs, l.String())
		}
		sort.Strings(locs)
		b.WriteString("|stuck:")
		for _, l := range locs {
			b.WriteString(l)
			b.WriteByte(',')
		}
	}
	return b.String()
}

// Outcome classifies a terminated state in the paper's failure vocabulary.
type Outcome int

// Outcomes.
const (
	OutcomeNormal   Outcome = iota + 1 // halted via halt
	OutcomeCrash                       // exception (illegal instr/addr, div-zero, throw)
	OutcomeHang                        // watchdog timeout
	OutcomeDetected                    // a detector fired
	OutcomeRunning                     // not terminated yet
)

// MarshalText renders the outcome by name. encoding/json consults
// TextMarshaler for map keys, so outcome-keyed tallies (checker reports,
// cluster task reports) serialize with readable, order-independent keys
// instead of bare integers.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses an outcome name; bare integers in the defined range
// are accepted for compatibility with journals written before outcomes were
// named on the wire. Out-of-range integers (a corrupt or hand-edited journal)
// are rejected rather than smuggled in as nameless tally buckets.
func (o *Outcome) UnmarshalText(text []byte) error {
	s := string(text)
	for cand := OutcomeNormal; cand <= OutcomeRunning; cand++ {
		if cand.String() == s {
			*o = cand
			return nil
		}
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < int(OutcomeNormal) || n > int(OutcomeRunning) {
		return fmt.Errorf("symexec: unknown outcome %q", s)
	}
	*o = Outcome(n)
	return nil
}

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeNormal:
		return "normal"
	case OutcomeCrash:
		return "crash"
	case OutcomeHang:
		return "hang"
	case OutcomeDetected:
		return "detected"
	case OutcomeRunning:
		return "running"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Outcome classifies the state.
func (s *State) Outcome() Outcome {
	switch s.Status {
	case machine.StatusHalted:
		return OutcomeNormal
	case machine.StatusExcepted:
		switch s.Exc.Kind {
		case isa.ExcTimeout:
			return OutcomeHang
		case isa.ExcDetected:
			return OutcomeDetected
		default:
			return OutcomeCrash
		}
	}
	return OutcomeRunning
}
