// Package machine implements SymPLFIED's concrete machine model (paper
// Section 5.1): a deterministic interpreter for the generic assembly
// language, with native input/output, exceptions for invalid fetches,
// undefined memory reads and division by zero, a watchdog instruction bound
// (the paper's timeout), and CHECK-annotated error detectors.
//
// The machine corresponds to the equational part of the paper's Maude
// specification: for a given instruction sequence the final state is uniquely
// determined in the absence of errors. The nondeterministic error semantics
// live in internal/symexec.
//
// The interpreter executes the program's pre-decoded op array
// (isa.Program.Code) over a flat open-addressed data memory (isa.Memory, the
// same table the symbolic engine keeps its memory image in). For the concrete
// fault-injection baseline (internal/simplescalar) a run stops at a chosen
// instruction with RunUntil, is copied with Restore, and has its state
// mutated with SetReg/SetMem/SetPC, emulating the paper's augmented
// SimpleScalar; SameConfig tells when an injected copy is back in the
// fault-free copy's configuration, and ResultView reads a result without
// copying it. The machine keeps the last TraceTailLen executed program
// counters for crash-site context. RunTail runs a state kept outside the
// machine (an Image) and hands it back: the model checker runs the err-free
// stretches of its symbolic paths this way, and RunTail skips the laps of a
// hang it can prove repeat (exactly, as an affine register map, or as an
// affine map of the registers and the words a lap stores and reads back:
// see affine.go) instead of executing them.
package machine

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/symbolic"
)

// DefaultWatchdog is the default instruction bound. It must be conservative:
// larger than any correct execution of the analyzed programs (Section 5.4).
//
// This constant is shared with the symbolic engine: symexec.DefaultOptions
// resolves its watchdog to DefaultWatchdog, and both engines raise ExcTimeout
// through the identical "steps >= watchdog" check before executing the next
// instruction. Hang classification therefore agrees between the concrete and
// symbolic executors by construction (pinned by TestHangClassificationParity
// and relied on by internal/crossval when diffing the two engines).
const DefaultWatchdog = 1_000_000

// TraceTailLen is how many trailing program counters TraceTail returns.
const TraceTailLen = 16

// OutItem is one element of the output stream: a printed value or a printed
// string literal.
type OutItem struct {
	IsStr bool
	Str   string
	Val   isa.Value
}

// String renders the item as it would appear on the program's output.
func (o OutItem) String() string {
	if o.IsStr {
		return o.Str
	}
	return o.Val.String()
}

// RenderOutput renders a whole output stream.
func RenderOutput(out []OutItem) string {
	var b strings.Builder
	for _, o := range out {
		b.WriteString(o.String())
	}
	return b.String()
}

// OutputValues extracts just the printed values (ignoring string literals).
func OutputValues(out []OutItem) []isa.Value {
	var vs []isa.Value
	for _, o := range out {
		if !o.IsStr {
			vs = append(vs, o.Val)
		}
	}
	return vs
}

// Status describes where an execution ended up.
type Status int

// Execution statuses.
const (
	StatusRunning Status = iota + 1
	StatusHalted         // executed halt
	StatusExcepted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusExcepted:
		return "excepted"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Options configures a machine run.
type Options struct {
	// Watchdog bounds the number of executed instructions; 0 selects
	// DefaultWatchdog.
	Watchdog int
	// Detectors supplies the detector table for CHECK instructions; nil
	// means CHECK raises a specification error.
	Detectors *detector.Table
}

// Machine is a concrete interpreter instance. Create one with New, then call
// Run (or Step in a loop). The zero Machine is only a Restore or RunTail
// target.
type Machine struct {
	prog     *isa.Program
	code     []isa.Lowered
	regs     [isa.NumRegs]isa.Value // regs[0] is never written, so reads 0
	mem      isa.Memory
	pc       int
	in       []isa.Value // shared by restored copies, never written
	inPos    int
	out      []OutItem
	steps    int
	status   Status
	exc      *isa.Exception
	watchdog int
	dets     *detector.Table
	// trace is a ring of the program counters of the last fetches;
	// fetches counts every fetch, including one that faults.
	trace   [TraceTailLen]int
	fetches int
	// tail is set by RunTail: a CHECK stops the run instead of executing.
	tail bool
	// stores counts the stores that changed memory, so RunTail can tell
	// that memory has not changed without comparing it; cp is RunTail's
	// cycle checkpoint, allocated at the first one and kept for later tails.
	stores int
	cp     *tailCheckpoint
	// storeLapSteps counts the steps RunTail's store-lap gear skipped
	// over every tail m ran (StoreLapSteps).
	storeLapSteps int
	// excBuf, set by RunTail from Image.ExcBuf, is where raise writes the
	// exception instead of allocating one.
	excBuf *isa.Exception
	// timeoutDetail caches the watchdog exception's detail, which names
	// the step count timeoutSteps: every hang of a run raises at the same
	// count, so its hangs share one string.
	timeoutDetail string
	timeoutSteps  int
}

// New creates a machine for prog with the given input stream.
func New(prog *isa.Program, input []int64, opts Options) *Machine {
	m := &Machine{
		prog:     prog,
		code:     prog.Code(),
		in:       make([]isa.Value, len(input)),
		status:   StatusRunning,
		watchdog: opts.Watchdog,
		dets:     opts.Detectors,
	}
	for i, v := range input {
		m.in[i] = isa.Int(v)
	}
	if m.watchdog <= 0 {
		m.watchdog = DefaultWatchdog
	}
	if m.dets == nil {
		m.dets = noDetectors
	}
	return m
}

// noDetectors is the detector table of a machine given none. Tables are
// read-only once built, so every such machine shares this one.
var noDetectors = detector.EmptyTable()

// Restore makes m an exact, independent copy of src — registers, memory,
// output, input position, program counter, step count, status and trace tail
// — reusing m's storage, so restoring a snapshot into the same machine again
// does not allocate once m's buffers have grown to src's size. Later changes
// to either machine never show in the other.
func (m *Machine) Restore(src *Machine) {
	if m == src {
		return
	}
	m.prog = src.prog
	m.code = src.code
	m.regs = src.regs
	m.mem.CopyFrom(&src.mem)
	m.pc = src.pc
	m.in = src.in
	m.inPos = src.inPos
	m.out = append(m.out[:0], src.out...)
	m.steps = src.steps
	m.status = src.status
	m.exc = src.exc
	m.watchdog = src.watchdog
	m.dets = src.dets
	m.trace = src.trace
	m.fetches = src.fetches
	m.tail = src.tail
}

// Program returns the program being executed.
func (m *Machine) Program() *isa.Program { return m.prog }

// PC returns the current program counter.
func (m *Machine) PC() int { return m.pc }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() int { return m.steps }

// Watchdog returns the resolved instruction bound.
func (m *Machine) Watchdog() int { return m.watchdog }

// Status returns the execution status.
func (m *Machine) Status() Status { return m.status }

// Exception returns the terminating exception, if any.
func (m *Machine) Exception() *isa.Exception { return m.exc }

// UnreadInput returns the input values not read yet. The slice is shared
// with the machine, as the whole input is with its restored copies, so the
// caller must not write it.
func (m *Machine) UnreadInput() []isa.Value { return m.in[m.inPos:] }

// TraceTail returns the program counters of the last TraceTailLen fetches,
// oldest first, or nil before the first one. A fetch from an invalid address
// is included; a step stopped by the watchdog fetches nothing.
func (m *Machine) TraceTail() []int {
	if m.fetches == 0 {
		return nil
	}
	if m.fetches < TraceTailLen {
		return append([]int(nil), m.trace[:m.fetches]...)
	}
	next := m.fetches % TraceTailLen // the oldest entry
	return append(append(make([]int, 0, TraceTailLen), m.trace[next:]...), m.trace[:next]...)
}

// RunUntil executes until the machine is about to execute the instruction at
// pc for the occurrence-th time (1-based), or until it stops. It returns true
// if the breakpoint was reached with the machine still running.
func (m *Machine) RunUntil(pc, occurrence int) bool {
	for n := max(occurrence, 1); m.status == StatusRunning; {
		m.run(nil, breakpoint{pc, true}, maxSteps)
		if m.status != StatusRunning {
			break
		}
		if n--; n == 0 {
			return true
		}
		m.Step()
	}
	return false
}

// RunUntilCtx is RunUntil(pc, 1) polling ctx the way RunCtx does. It returns
// true when the machine stopped running at pc, false when it stopped for
// good or ctx interrupted it (the machine is then still running).
func (m *Machine) RunUntilCtx(ctx context.Context, pc int) bool {
	m.run(ctx, breakpoint{pc, true}, maxSteps)
	return m.status == StatusRunning && m.pc == pc
}

// Output returns the output stream produced so far. The slice is a copy.
func (m *Machine) Output() []OutItem {
	out := make([]OutItem, len(m.out))
	copy(out, m.out)
	return out
}

// Reg returns the value of register r ($0 always reads 0).
func (m *Machine) Reg(r isa.Reg) isa.Value {
	if r == isa.RegZero {
		return isa.Int(0)
	}
	return m.regs[r]
}

// SetReg writes register r; writes to $0 are discarded. It is exported for
// fault injection.
func (m *Machine) SetReg(r isa.Reg, v isa.Value) {
	if r == isa.RegZero {
		return
	}
	m.regs[r] = v
}

// Mem returns the memory word at addr; ok is false for undefined locations.
func (m *Machine) Mem(addr int64) (isa.Value, bool) { return m.mem.Load(addr) }

// SetMem writes the memory word at addr, defining it if needed. Exported for
// fault injection and program loaders.
func (m *Machine) SetMem(addr int64, v isa.Value) { m.mem.Store(addr, v) }

// SetPC repositions the program counter. Exported for fault injection (PC
// errors). An invalid target raises "illegal instruction" at the next step.
func (m *Machine) SetPC(pc int) { m.pc = pc }

// CopyMem makes dst an independent copy of the machine's memory image,
// reusing dst's table when it is large enough. Later stores to either never
// show in the other.
func (m *Machine) CopyMem(dst *isa.Memory) { dst.CopyFrom(&m.mem) }

// RegOperand implements detector.Env.
func (m *Machine) RegOperand(r isa.Reg) symbolic.Operand {
	v := m.Reg(r)
	if n, ok := v.Concrete(); ok {
		return symbolic.ConcreteOperand(n)
	}
	return symbolic.Operand{Val: isa.Err()}
}

// MemOperand implements detector.Env.
func (m *Machine) MemOperand(addr int64) (symbolic.Operand, bool) {
	v, ok := m.mem.Load(addr)
	if !ok {
		return symbolic.Operand{}, false
	}
	if n, okc := v.Concrete(); okc {
		return symbolic.ConcreteOperand(n), true
	}
	return symbolic.Operand{Val: isa.Err()}, true
}

var _ detector.Env = (*Machine)(nil)

// Result summarizes a finished run.
type Result struct {
	Status    Status
	Exception *isa.Exception
	Output    []OutItem
	Steps     int
}

// Run executes until halt, exception, or watchdog expiry, and returns the
// summary. Calling Run on a finished machine returns the existing result.
func (m *Machine) Run() Result {
	m.run(nil, breakpoint{}, maxSteps)
	return m.result()
}

// runCtxPollMask gates how often RunCtx polls the context: every
// runCtxPollMask+1 executed instructions. A power-of-two mask keeps the check
// off the interpreter hot path while still bounding cancellation latency to
// ~1k instructions.
const runCtxPollMask = 1023

// RunCtx executes like Run but polls ctx between instructions, so a
// cancellation or deadline interrupts the run even inside a tight loop that
// the watchdog would only stop much later. An interrupted machine is left
// with StatusRunning and the partial result is returned; callers distinguish
// interruption from completion via ctx.Err().
func (m *Machine) RunCtx(ctx context.Context) Result {
	m.run(ctx, breakpoint{}, maxSteps)
	return m.result()
}

func (m *Machine) result() Result {
	return Result{Status: m.status, Exception: m.exc, Output: m.Output(), Steps: m.steps}
}

// ResultView returns the result Run would return without copying it: its
// Output aliases the machine's output buffer, so it must not be written,
// and it is only valid until the machine next runs or is restored. Like
// Run's, it is never nil.
func (m *Machine) ResultView() Result {
	out := m.out
	if out == nil {
		out = noOutput
	}
	return Result{Status: m.status, Exception: m.exc, Output: out, Steps: m.steps}
}

// noOutput is the output of a result view of a machine that has printed
// nothing.
var noOutput = []OutItem{}

// SameConfig reports whether m and o are in the same configuration:
// program, input, watchdog, detectors, program counter, step count, status
// and exception, registers, input position, output, memory and trace tail.
// Running either on from here executes the same instructions and ends with
// equal Results and trace tails. Two restored copies of one machine that
// have defined the same words since compare memory slot for slot.
func (m *Machine) SameConfig(o *Machine) bool {
	return m.pc == o.pc && m.steps == o.steps && m.status == o.status &&
		m.inPos == o.inPos && m.fetches == o.fetches && len(m.out) == len(o.out) &&
		m.prog == o.prog && m.watchdog == o.watchdog && m.dets == o.dets && m.tail == o.tail &&
		(m.exc == o.exc || m.exc != nil && o.exc != nil && *m.exc == *o.exc) &&
		m.regs == o.regs && m.trace == o.trace && sameInput(m.in, o.in) &&
		slices.Equal(m.out, o.out) && m.mem.Equal(&o.mem)
}

// sameInput reports whether two input streams hold the same values. Restored
// copies share one stream, which it recognizes without a scan.
func sameInput(a, b []isa.Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

func (m *Machine) raise(kind isa.ExceptionKind, detail string) {
	m.status = StatusExcepted
	if m.excBuf != nil {
		*m.excBuf = isa.Exception{Kind: kind, PC: m.pc, Detail: detail}
		m.exc = m.excBuf
		return
	}
	m.exc = &isa.Exception{Kind: kind, PC: m.pc, Detail: detail}
}

// raiseOperand is the exception for an injected err used as an operand: the
// concrete model has no symbolic semantics.
func (m *Machine) raiseOperand() {
	m.raise(isa.ExcIllegalAddr, "erroneous operand in concrete machine")
}

// Step executes one instruction. It is a no-op once the machine has stopped.
func (m *Machine) Step() { m.run(nil, breakpoint{}, m.steps+1) }

// maxSteps is run's limit when only the watchdog bounds the run.
const maxSteps = int(^uint(0) >> 1)

// operands fetches the two operands of an arithmetic, comparison-set or
// branch op; ok is false when either holds err.
func (m *Machine) operands(op *isa.Lowered) (x, y int64, ok bool) {
	x, okX := m.regs[op.Rs].Concrete()
	if op.UseImm {
		return x, op.Imm, okX
	}
	y, okY := m.regs[op.Rt].Concrete()
	return x, y, okX && okY
}

// write sets register r (discarding $0) and falls through to the next
// instruction.
func (m *Machine) write(r isa.Reg, v isa.Value) {
	if r != isa.RegZero {
		m.regs[r] = v
	}
	m.pc++
}

// breakpoint is where run stops: before the instruction at pc, when set.
type breakpoint struct {
	pc  int
	set bool
}

// run is the interpreter loop behind Step and every Run variant. It executes
// until the machine stops, reaches bp, or has executed limit instructions in
// all, and polls ctx (nil: never) before every runCtxPollMask+1-th
// instruction. The watchdog raises ExcTimeout before the instruction that
// would exceed it.
func (m *Machine) run(ctx context.Context, bp breakpoint, limit int) {
	for m.status == StatusRunning && !(bp.set && m.pc == bp.pc) && m.steps < limit {
		if ctx != nil && m.steps&runCtxPollMask == 0 && ctx.Err() != nil {
			return
		}
		if m.watchdogExpired() {
			return
		}
		end := min(limit, m.watchdog)
		if ctx != nil {
			end = min(end, (m.steps|runCtxPollMask)+1) // the next poll
		}
		m.exec(bp, end)
	}
}

// watchdogExpired raises ExcTimeout, and reports true, once the run has
// executed as many instructions as the watchdog allows.
func (m *Machine) watchdogExpired() bool {
	if m.steps < m.watchdog {
		return false
	}
	if m.timeoutDetail == "" || m.timeoutSteps != m.steps {
		m.timeoutDetail = "watchdog after " + strconv.Itoa(m.steps) + " instructions"
		m.timeoutSteps = m.steps
	}
	m.raise(isa.ExcTimeout, m.timeoutDetail)
	return true
}

// Image is the architectural state of a run, in the form a caller that keeps
// its states outside a Machine hands it to RunTail and takes it back: the
// symbolic engine runs its err-free states on the interpreter this way.
type Image struct {
	PC     int
	Regs   [isa.NumRegs]isa.Value
	Mem    isa.Memory
	In     []isa.Value // never written
	InPos  int
	Out    []OutItem
	Steps  int
	Status Status
	Exc    *isa.Exception
	// ExcBuf, when set, is where RunTail writes an exception, so Exc
	// points to it, instead of allocating one: for a caller that reads
	// the exception before its next RunTail with the same buffer.
	ExcBuf *isa.Exception
}

// StoreLapSteps returns how many steps RunTail's store-lap gear has skipped
// over every tail m ran; they are part of the steps RunTail returned.
func (m *Machine) StoreLapSteps() int { return m.storeLapSteps }

// RunTail runs the running image img on m, with prog and watchdog, and
// writes the resulting state back into img. It runs until the run stops,
// has reached limit steps in all (an absolute step count, like Steps), or is
// about to execute a CHECK, which it leaves unexecuted and uncounted for the
// caller to run with its own detector semantics. img.Mem and img.Out move
// into m and back without a copy, and m keeps no reference to either
// afterwards, so one Machine serves any number of images. The run img holds
// must not have stopped, and must hold no err; Status and Exc are only
// written.
//
// A cycle accelerator fast-forwards hang laps, so the result is the one
// executing every step would give, but some steps are skipped rather than
// executed: RunTail returns how many. At Brent-style checkpoints (the
// first after CycleCheckpointStart steps, then at doubling intervals) it
// saves the configuration, and when the run returns to the checkpoint pc
// without having read input or printed, it skips every whole lap that fits
// below min(limit, watchdog) by one of its gears. When memory recurred too,
// it either advances Steps (the registers recurred: an exact lap) or probes
// the next laps for an affine register map and adds k laps of delta
// (affineLaps). When memory changed, the store-lap gear probes them for a
// lap whose stores and registers advance affinely, adding k laps of delta
// and replaying their stores (storeLaps), or, when the registers recurred,
// for a period that rewrites every word it changes (periodicLap). The
// watchdog then raises at the step count it would have reached. The
// machine's TraceTail ring is left unspecified: internal/simplescalar reads
// it and never calls RunTail.
func (m *Machine) RunTail(prog *isa.Program, watchdog int, img *Image, limit int) (skipped int) {
	m.prog, m.code, m.watchdog = prog, prog.Code(), watchdog
	m.pc, m.regs, m.in, m.inPos, m.steps = img.PC, img.Regs, img.In, img.InPos, img.Steps
	m.mem, img.Mem = img.Mem, isa.Memory{}
	m.out, img.Out = img.Out, nil
	m.status, m.exc, m.tail, m.excBuf = StatusRunning, nil, true, img.ExcBuf
	end := min(limit, m.watchdog)
	start, next := m.steps, m.steps+CycleCheckpointStart
	armed, misses := false, 0
	for m.status == StatusRunning && m.steps < limit && !m.watchdogExpired() {
		stop, from, bp := min(end, next), m.steps, breakpoint{}
		if armed {
			bp = breakpoint{m.cp.pc, true}
		}
		m.exec(bp, stop)
		if m.status != StatusRunning {
			break
		}
		if armed && m.pc == bp.pc && m.steps > from {
			if n, served := m.recur(end); served {
				skipped += n
				armed = false
			} else if misses++; misses == CycleMissLimit {
				armed = false
			}
		} else if m.steps < stop {
			break // before a CHECK
		}
		if m.steps >= next {
			m.checkpoint()
			armed, misses = true, 0
			for next <= m.steps {
				next += next - start
			}
		}
	}
	img.PC, img.Regs, img.InPos, img.Steps, img.Status, img.Exc = m.pc, m.regs, m.inPos, m.steps, m.status, m.exc
	m.excBuf = nil
	img.Mem, m.mem = m.mem, isa.Memory{}
	img.Out, m.out = m.out, nil
	return skipped
}

// The Brent-style schedule of both cycle accelerators, RunTail's and the
// merged explorer's (internal/checker): the first checkpoint after
// CycleCheckpointStart steps, then at doubling intervals, so a run of n
// steps takes O(log n) checkpoints, and a lap shorter than an interval
// returns to the checkpoint pc before the next one. A checkpoint disarms
// until the next one after CycleMissLimit returns to its pc that did not
// recur (a loop that keeps changing memory or printing never settles),
// bounding the comparison cost of loops that never repeat. In RunTail a
// return that enters the affine or the store-lap gear disarms it too,
// whether or not the gear skips: the gear has already executed the laps it
// needed to see.
const (
	CycleCheckpointStart = 64
	CycleMissLimit       = 4
)

// tailCheckpoint is the configuration RunTail compares a return to its pc
// against: everything a lap can change apart from memory and the output's
// content. Memory needs no copy: while the machine's count of stores that
// changed memory is the checkpoint's, memory is too, and a lap that changed
// it is for the store-lap gear, which records what it needs. The output only
// grows, so its length stands for it. The rest is the gears' reused
// scratch.
type tailCheckpoint struct {
	pc, inPos, outLen, steps, stores int
	regs                             [isa.NumRegs]isa.Value
	window                           []int        // the gears' recorded lap
	access                           []lapAccess  // storeLaps's recorded accesses
	log                              []loggedWord // periodicLap's stored words
}

// loggedWord is a word periodicLap saw a store to, with its value before.
type loggedWord struct {
	addr    int64
	old     isa.Value
	defined bool
}

// lapKey identifies a return to a checkpoint for the store-lap gear: the
// program, the pc, the steps since the checkpoint and the registers that
// changed.
type lapKey struct {
	prog      *isa.Program
	pc, steps int
	changed   uint32
}

// lapFails holds the returns whose next lap failed the store-lap gear
// before its verify lap: the lap did not close, or failed storeLapShapeOK,
// or its period did not recur (periodicLap). Every machine shares it, so a
// lap that failed in one tail is not recorded again in the next tail, or the
// next injection's. It forgets everything past maxLapFails returns.
var lapFails struct {
	sync.Mutex
	m map[lapKey]struct{}
}

const maxLapFails = 1 << 14

// failed reports whether a return with key failed before.
func failed(key lapKey) bool {
	lapFails.Lock()
	_, ok := lapFails.m[key]
	lapFails.Unlock()
	return ok
}

// fail remembers that a return with key failed.
func fail(key lapKey) {
	lapFails.Lock()
	if lapFails.m == nil || len(lapFails.m) == maxLapFails {
		lapFails.m = make(map[lapKey]struct{})
	}
	lapFails.m[key] = struct{}{}
	lapFails.Unlock()
}

// checkpoint saves the current configuration as the cycle checkpoint.
func (m *Machine) checkpoint() {
	if m.cp == nil {
		m.cp = new(tailCheckpoint)
	}
	cp := m.cp
	cp.pc, cp.inPos, cp.outLen, cp.steps, cp.stores = m.pc, m.inPos, len(m.out), m.steps, m.stores
	cp.regs = m.regs
}

// recur handles a return to the checkpoint pc below end. A lap that read
// input or printed is a miss, and one that changed memory is for storeLaps.
// When the configuration recurred whole, every further lap is identical
// (the machine is deterministic), so it skips all whole laps that fit below
// end; when only registers changed, it tries affineLaps. It returns the
// steps skipped, and served unless the return was a miss.
func (m *Machine) recur(end int) (skipped int, served bool) {
	cp := m.cp
	if m.inPos != cp.inPos || len(m.out) != cp.outLen {
		return 0, false
	}
	if m.stores != cp.stores {
		return m.storeLaps(end)
	}
	if m.regs != cp.regs {
		return m.affineLaps(end), true
	}
	lap := m.steps - cp.steps
	skipped = (end - m.steps) / lap * lap
	m.steps += skipped
	return skipped, true
}

// affineLaps is the affine gear, entered at a lap boundary where memory,
// input position and output length recurred but registers did not. It
// executes the next lap, recording its pc window and register delta d. When
// that lap left memory unchanged and the window proves affine under d (AffineLapOK,
// checked before the second lap as the merged explorer does), it executes
// one more lap, which must replay the window and repeat d; then every later
// lap adds d too, so it adds k·d for the k whole laps that fit below end and
// advances Steps past them. It returns the steps skipped. The laps it
// executes are real steps, so declining at any point leaves a correct state.
func (m *Machine) affineLaps(end int) int {
	boundary, r0 := m.pc, m.regs
	m.cp.window = m.cp.window[:0]
	for len(m.cp.window) == 0 || m.pc != boundary {
		if len(m.cp.window) == MaxAffineLap {
			return 0
		}
		// Only the step may touch the code at pc: a jr may have left
		// the program.
		m.cp.window = append(m.cp.window, m.pc)
		if !m.tailStep(end) {
			return 0
		}
	}
	w := m.cp.window
	d, ok := LapDelta(&r0, &m.regs)
	if !ok || m.stores != m.cp.stores || !AffineLapOK(m.prog, w, &d) {
		return 0
	}
	r1 := m.regs
	for _, pc := range w {
		if m.pc != pc || !m.tailStep(end) {
			return 0
		}
	}
	if d2, ok := LapDelta(&r1, &m.regs); !ok || d2 != d {
		return 0
	}
	k := (end - m.steps) / len(w)
	AdvanceAffine(&m.regs, &d, k)
	m.steps += k * len(w)
	return k * len(w)
}

// storeLaps is the store-lap gear, entered at a return to the checkpoint
// where the input position and output length recurred but memory did not.
// The return is a miss, costing nothing, when the lap from the checkpoint
// is longer than MaxAffineLap, or when a return with its lapKey already
// failed (lapFails). A return whose registers recurred is for periodicLap.
// Otherwise it executes the next lap, recording its window, register delta
// d and loads and stores, and gives up when the lap takes four times the
// steps the one from the checkpoint took; when the lap passes
// storeLapShapeOK it executes one more, which must replay the window and
// repeat d, recording the same accesses again. When storeLapOK proves the k
// whole laps that fit below end repeat, it replays their stores, adds k·d
// to the registers and advances Steps past them. It returns the steps
// skipped, and served unless the return was a miss; the laps it executes
// are real steps, so declining at any point leaves a correct state.
func (m *Machine) storeLaps(end int) (int, bool) {
	cp := m.cp
	lap0 := m.steps - cp.steps
	if lap0 > MaxAffineLap {
		return 0, false
	}
	key := lapKey{prog: m.prog, pc: m.pc, steps: lap0}
	for r := range m.regs {
		if m.regs[r] != cp.regs[r] {
			key.changed |= 1 << r
		}
	}
	if failed(key) {
		return 0, false
	}
	if m.regs == cp.regs {
		return m.periodicLap(end, key), true
	}
	boundary, r0 := m.pc, m.regs
	w, acc := cp.window[:0], cp.access[:0]
	defer func() { cp.window, cp.access = w, acc }()
	for len(w) == 0 || m.pc != boundary {
		if len(w) == min(4*lap0, MaxAffineLap) {
			fail(key)
			return 0, true
		}
		// Only the step may touch the code at pc: a jr may have left
		// the program.
		w = append(w, m.pc)
		addr, val, store, ok := m.access()
		if ok {
			acc = append(acc, lapAccess{Pos: len(w) - 1, Store: store, Addr: [2]int64{addr}, Val: [2]int64{val}})
		}
		stores := m.stores
		if !m.tailStep(end) {
			return 0, true
		}
		if ok {
			acc[len(acc)-1].Changed = m.stores != stores
		}
	}
	d, ok := LapDelta(&r0, &m.regs)
	if !ok || !storeLapShapeOK(m.prog, w, &d, acc) {
		fail(key)
		return 0, true
	}
	r1, i := m.regs, 0
	for _, pc := range w {
		if m.pc != pc {
			return 0, true
		}
		if addr, val, _, ok := m.access(); ok {
			acc[i].Addr[1], acc[i].Val[1] = addr, val
			i++
		}
		if !m.tailStep(end) {
			return 0, true
		}
	}
	if d2, ok := LapDelta(&r1, &m.regs); !ok || d2 != d || m.pc != boundary {
		return 0, true
	}
	k := (end - m.steps) / len(w)
	if !storeLapOK(m.prog, w, &d, acc, k) {
		return 0, true
	}
	m.stores += replayStoreLaps(&m.mem, acc, k)
	AdvanceAffine(&m.regs, &d, k)
	m.steps += k * len(w)
	m.storeLapSteps += k * len(w)
	return k * len(w), true
}

// periodicLap handles a return to the checkpoint whose registers recurred
// although stores changed memory on the way: a loop whose period passes the
// checkpoint pc more than once may rewrite every word it changes with the
// value the word had one period before. It executes one more lap of the
// same length, logging each stored word's value before the store, and when
// the pc, registers, input position and output length recur and every
// logged word holds its first logged value again, the configuration
// recurred whole: it skips every whole lap that fits below end, as recur
// does for an exact lap. A lap that fails is remembered under key.
func (m *Machine) periodicLap(end int, key lapKey) int {
	cp := m.cp
	lap, pc, regs := m.steps-cp.steps, m.pc, m.regs
	inPos, outLen := m.inPos, len(m.out)
	log := cp.log[:0]
	defer func() { cp.log = log }()
	for i := 0; i < lap; i++ {
		if addr, _, store, ok := m.access(); ok && store {
			old, defined := m.mem.Load(addr)
			log = append(log, loggedWord{addr, old, defined})
		}
		if !m.tailStep(end) {
			return 0
		}
	}
	recurred := m.pc == pc && m.regs == regs && m.inPos == inPos && len(m.out) == outLen
	for i := 0; recurred && i < len(log); i++ {
		first := true
		for j := 0; j < i && first; j++ {
			first = log[j].addr != log[i].addr
		}
		if first {
			v, defined := m.mem.Load(log[i].addr)
			recurred = defined == log[i].defined && v == log[i].old
		}
	}
	if !recurred {
		fail(key)
		return 0
	}
	skipped := (end - m.steps) / lap * lap
	m.steps += skipped
	m.storeLapSteps += skipped
	return skipped
}

// access returns the address and the word of the load or store the machine
// is about to execute: the value it stores, or the value at the address
// (0 when undefined; the load then raises). ok is false for any other
// instruction, or a pc outside the program.
func (m *Machine) access() (addr, val int64, store, ok bool) {
	if uint(m.pc) >= uint(len(m.code)) {
		return 0, 0, false, false
	}
	op := &m.code[m.pc]
	if op.Kind != isa.KindLd && op.Kind != isa.KindSt {
		return 0, 0, false, false
	}
	base, _ := m.regs[op.Rs].Concrete()
	addr = base + op.Imm
	v := m.regs[op.Rt]
	if op.Kind == isa.KindLd {
		v, _ = m.mem.Load(addr)
	}
	val, _ = v.Concrete()
	return addr, val, op.Kind == isa.KindSt, true
}

// tailStep executes one instruction of a tail when the step count is below
// end; it reports whether it did and the machine still runs.
func (m *Machine) tailStep(end int) bool {
	from := m.steps
	if from >= end {
		return false
	}
	m.exec(breakpoint{}, from+1)
	return m.status == StatusRunning && m.steps > from
}

// exec is run's inner loop: it fetches and executes instructions until the
// step count reaches end (> Steps), the machine reaches bp, or it stops.
func (m *Machine) exec(bp breakpoint, end int) {
	code := m.code
	for {
		m.trace[m.fetches&(TraceTailLen-1)] = m.pc
		m.fetches++
		if uint(m.pc) >= uint(len(code)) {
			m.raise(isa.ExcIllegalInstr, "fetch from "+strconv.Itoa(m.pc))
			return
		}
		op := &code[m.pc]
		m.steps++
		switch op.Kind {
		case isa.KindAdd, isa.KindSub, isa.KindMult, isa.KindDiv, isa.KindMod, isa.KindAnd,
			isa.KindOr, isa.KindXor, isa.KindNor, isa.KindSll, isa.KindSrl, isa.KindSra:
			x, y, ok := m.operands(op)
			if !ok {
				m.raiseOperand()
				return
			}
			bin, _ := op.Kind.Bin()
			v, err := isa.EvalBin(bin, x, y)
			if err != nil {
				m.raise(isa.ExcDivZero, "")
				return
			}
			m.write(op.Rd, isa.Int(v))
		case isa.KindSetEq, isa.KindSetNe, isa.KindSetGt, isa.KindSetLt, isa.KindSetGe, isa.KindSetLe:
			x, y, ok := m.operands(op)
			if !ok {
				m.raiseOperand()
				return
			}
			cmp, _ := op.Kind.Cmp()
			var v int64
			if isa.EvalCmp(cmp, x, y) {
				v = 1
			}
			m.write(op.Rd, isa.Int(v))
		case isa.KindMov:
			m.write(op.Rd, m.regs[op.Rs])
		case isa.KindLi:
			m.write(op.Rd, isa.Int(op.Imm))
		case isa.KindLd:
			base, ok := m.regs[op.Rs].Concrete()
			if !ok {
				m.raise(isa.ExcIllegalAddr, "erroneous address in concrete machine")
				return
			}
			v, defined := m.mem.Load(base + op.Imm)
			if !defined {
				m.raise(isa.ExcIllegalAddr, "load from undefined "+strconv.FormatInt(base+op.Imm, 10))
				return
			}
			m.write(op.Rt, v)
		case isa.KindSt:
			base, ok := m.regs[op.Rs].Concrete()
			if !ok {
				m.raise(isa.ExcIllegalAddr, "erroneous address in concrete machine")
				return
			}
			if m.mem.Store(base+op.Imm, m.regs[op.Rt]) {
				m.stores++
			}
			m.pc++
		case isa.KindBranch:
			x, y, ok := m.operands(op)
			switch {
			case !ok:
				m.raiseOperand()
				return
			case (x == y) != op.Neg:
				m.pc = op.Target
			default:
				m.pc++
			}
		case isa.KindJmp:
			m.pc = op.Target
		case isa.KindJal:
			m.regs[isa.RegRA] = isa.Int(int64(m.pc + 1))
			m.pc = op.Target
		case isa.KindJr:
			target, ok := m.regs[op.Rs].Concrete()
			if !ok {
				m.raise(isa.ExcIllegalInstr, "erroneous jump target in concrete machine")
				return
			}
			// Validity is checked at the next fetch, mirroring the paper's
			// "attempt to fetch an instruction from an invalid code address"
			// exception.
			m.pc = int(target)
		case isa.KindRead:
			if m.inPos >= len(m.in) {
				m.raise(isa.ExcThrow, "end of input")
				return
			}
			m.inPos++
			m.write(op.Rd, m.in[m.inPos-1])
		case isa.KindPrint:
			m.out = append(m.out, OutItem{Val: m.regs[op.Rd]})
			m.pc++
		case isa.KindPrints:
			m.out = append(m.out, OutItem{IsStr: true, Str: m.prog.At(m.pc).Str})
			m.pc++
		case isa.KindNop:
			m.pc++
		case isa.KindHalt:
			m.status = StatusHalted
			return
		case isa.KindThrow:
			m.raise(isa.ExcThrow, m.prog.At(m.pc).Str)
			return
		case isa.KindCheck:
			if m.tail {
				m.steps-- // left, unexecuted, to RunTail's caller
				return
			}
			if !m.execCheck(op.Imm) {
				return
			}
		default:
			m.raise(isa.ExcIllegalInstr, fmt.Sprintf("unsupported opcode %s", m.prog.At(m.pc).Op))
			return
		}
		if m.steps >= end || (bp.set && m.pc == bp.pc) {
			return
		}
	}
}

// execCheck runs detector id; false means it raised.
func (m *Machine) execCheck(id int64) bool {
	det, ok := m.dets.Lookup(id)
	if !ok {
		m.raise(isa.ExcThrow, fmt.Sprintf("unknown detector %d", id))
		return false
	}
	target, err := det.TargetOperand(m)
	if err != nil {
		m.raise(isa.ExcThrow, err.Error())
		m.exc.Detector = det.ID
		return false
	}
	expr, err := det.EvalExpr(m, false)
	if err != nil {
		m.raise(isa.ExcThrow, err.Error())
		m.exc.Detector = det.ID
		return false
	}
	tc, okT := target.Val.Concrete()
	ec, okE := expr.Val.Concrete()
	if !okT || !okE {
		// An injected err reached a detector in the concrete machine:
		// conservatively detect.
		m.raise(isa.ExcDetected, fmt.Sprintf("detector %d (erroneous operand)", det.ID))
		m.exc.Detector = det.ID
		return false
	}
	if !isa.EvalCmp(det.Cmp, tc, ec) {
		m.raise(isa.ExcDetected, fmt.Sprintf("detector %d: %s", det.ID, det))
		m.exc.Detector = det.ID
		return false
	}
	m.pc++
	return true
}
