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
//
// The memory half (storeLapOK, RunTail's store-lap gear only) admits laps
// that change memory: the stack-walking hang of a return through a
// corrupted $31, whose lap saves $31 in a frame, calls, reloads it and
// moves the stack pointer, writes a new word every lap. Its state is the
// register file plus the words a lap reads back from the previous lap's
// stores, and it is skipped when that extended state provably evolves by
// one fixed affine map:
//
//   - Stores may use a tainted base and value: a store's address and value
//     are then affine in the lap index, with the per-lap stride and step the
//     measured and verify laps show. A fixed-address store must keep its
//     value, so a counter kept in memory never qualifies.
//   - Every load reads either (b1) the word a store of its own stride last
//     wrote in its lap or the previous one, with no store between them that
//     can hit its address in any lap the proof covers, or (b2) a fixed
//     address no store of any of those laps reaches. A b1 load's value is
//     its store's (tainted as that store's value is, or as the word it read
//     in the measured lap differs from the verify lap's); a b2 load's word
//     never changes. The aliasing is decided in closed form: a store and a
//     load k laps on meet where c + k·t = 0 for their address offset c and
//     stride difference t.
//   - The delta of the extended state repeats: d again for the registers,
//     and for each word read back from the previous lap, the step between
//     the measured and verify laps' reads equals the step to the word the
//     verify lap stored for the next. The argument above then carries over
//     to the extended state, and skipping k laps adds k·d to the registers
//     and replays the k laps' stores in order (replayStoreLaps).

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
	tainted := taintLap(prog, window, delta, nil)
	return lapOK(prog, window, &tainted, false)
}

// taintLap returns the registers that may vary from lap to lap: those with
// a nonzero delta, closed over the lap's linear instructions and, when
// loads is given, over its loads: loads(i, tainted) reports whether the
// lap's i-th memory access, a load, may read a varying word. Non-linear ops
// with tainted sources are rejected by lapOK, so their outputs never need
// tainting. $zero absorbs writes and is never tainted.
func taintLap(prog *isa.Program, window []int, delta *[isa.NumRegs]int64, loads func(i int, tainted *[isa.NumRegs]bool) bool) [isa.NumRegs]bool {
	var tainted [isa.NumRegs]bool
	for r, d := range delta {
		if d != 0 {
			tainted[r] = true
		}
	}
	taint := func(r isa.Reg) bool {
		if r == isa.RegZero || tainted[r] {
			return false
		}
		tainted[r] = true
		return true
	}
	for again := true; again; {
		again = false
		accesses := 0
		for _, pc := range window {
			in := prog.At(pc)
			var from bool
			dst := in.Rd
			switch bin, imm, isArith := isa.ArithOp(in.Op); {
			case isArith && (bin == isa.BinAdd || bin == isa.BinSub || bin == isa.BinMult || bin == isa.BinSll):
				from = tainted[in.Rs] || (!imm && tainted[in.Rt])
			case in.Op == isa.OpMov:
				from = tainted[in.Rs]
			case in.Op == isa.OpSt:
				accesses++
				continue
			case in.Op == isa.OpLd:
				accesses++
				if loads == nil {
					continue
				}
				from, dst = loads(accesses-1, &tainted), in.Rt
			default:
				continue
			}
			if from && taint(dst) {
				again = true
			}
		}
	}
	return tainted
}

// lapOK validates every instruction of the lap against the tainted set.
// strided admits loads and stores whose base or stored value is tainted,
// for the store-lap proof, which accounts for their addresses and words;
// otherwise both must be invariant, keeping memory a per-lap fixed point.
func lapOK(prog *isa.Program, window []int, tainted *[isa.NumRegs]bool, strided bool) bool {
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
			if tainted[in.Rs] && !strided {
				return false
			}
		case isa.OpSt:
			// Invariant address and value keep memory a per-lap fixed point.
			if (tainted[in.Rs] || tainted[in.Rt]) && !strided {
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

// lapAccess is one load or store of a lap the store-lap gear recorded, in
// the order the lap made them: its position in the window, and its address
// and word (the value stored, or the value loaded) in the measured lap
// ([0]) and the verify lap ([1]). Changed marks a store that changed its
// word in the measured lap.
type lapAccess struct {
	Pos            int
	Store, Changed bool
	Addr, Val      [2]int64
}

// stride is the access's per-lap address step.
func (a *lapAccess) stride() int64 { return a.Addr[1] - a.Addr[0] }

// storeLapShapeOK is the store-lap gear's check after the measured lap
// alone, with acc holding that lap's accesses ([0] only): the lap's control,
// arithmetic, I/O and CHECK rules hold for the registers its delta taints,
// and no store through an untainted base changed its word or stores a
// tainted value (a counter kept at a fixed address). Loads taint nothing
// yet, so a lap this declines is one storeLapOK would decline too, bar a
// base that only a loaded word taints; it spares the verify lap.
func storeLapShapeOK(prog *isa.Program, window []int, delta *[isa.NumRegs]int64, acc []lapAccess) bool {
	tainted := taintLap(prog, window, delta, nil)
	if !lapOK(prog, window, &tainted, true) {
		return false
	}
	for i := range acc {
		if in := prog.At(window[acc[i].Pos]); acc[i].Store && !tainted[in.Rs] && (acc[i].Changed || tainted[in.Rt]) {
			return false
		}
	}
	return true
}

// maxLapAddr bounds the addresses storeLapOK reasons about, so that every
// address of every covered lap, and every difference of two, is exact in
// int64 and the closed-form alias test needs no modular arithmetic.
const maxLapAddr = 1 << 40

// storeLapOK reports whether the recorded lap, whose measured and verify
// laps both executed window with register delta delta and made the
// accesses acc, repeats for k more laps with the same delta and with every
// access's address and word advancing by its measured step (see the proof
// above). Laps are numbered from the measured lap (-1) and the verify lap
// (0) on, so the covered laps are -1..k.
func storeLapOK(prog *isa.Program, window []int, delta *[isa.NumRegs]int64, acc []lapAccess, k int) bool {
	if k <= 0 {
		return false
	}
	// writers[i] is load i's writer: the last store before it in the
	// verify lap to its address, else the measured lap's last store there,
	// encoded as -2-j; -1 for none.
	writers := make([]int, len(acc))
	span := maxLapAddr / int64(k+2)
	for i := range acc {
		a := &acc[i]
		s := a.stride()
		if a.Addr[0] <= -maxLapAddr || a.Addr[0] >= maxLapAddr || a.Addr[1] <= -maxLapAddr || a.Addr[1] >= maxLapAddr ||
			s <= -span || s >= span {
			return false
		}
		if a.Store {
			// A fixed-address store must keep its value.
			if s == 0 && a.Val[0] != a.Val[1] {
				return false
			}
			continue
		}
		w := -1
		for j := i - 1; j >= 0 && w == -1; j-- {
			if acc[j].Store && acc[j].Addr[1] == a.Addr[1] {
				w = j
			}
		}
		for j := len(acc) - 1; j >= 0 && w == -1; j-- {
			if acc[j].Store && acc[j].Addr[0] == a.Addr[1] {
				w = -2 - j
			}
		}
		writers[i] = w
		if !loadOK(acc, i, w, int64(k)) {
			return false
		}
	}
	tainted := taintLap(prog, window, delta, func(i int, tainted *[isa.NumRegs]bool) bool {
		w := writers[i]
		if w == -1 {
			return false
		}
		if w < -1 {
			w = -2 - w
			if acc[i].Val[0] != acc[i].Val[1] {
				return true
			}
		}
		return tainted[prog.At(window[acc[w].Pos]).Rt]
	})
	return lapOK(prog, window, &tainted, true)
}

// loadOK checks load i of acc, with writer w (as storeLapOK encodes it),
// against every store of laps -1..k.
func loadOK(acc []lapAccess, i, w int, k int64) bool {
	a := &acc[i]
	s := a.stride()
	// meets reports whether store j, of lap x-back for load i's lap x,
	// writes the load's address in one of the laps lo..k.
	meets := func(j int, back, lo int64) bool {
		st := &acc[j]
		return st.Store && hits(st.Addr[1]-back*st.stride()-a.Addr[1], st.stride()-s, lo, k)
	}
	switch {
	case w == -1:
		// (b2) A fixed word that no store of any covered lap reaches.
		if s != 0 {
			return false
		}
		for j := range acc {
			if meets(j, 0, -1) {
				return false
			}
		}
	case w >= 0:
		// (b1) Written earlier in its own lap, by a store of its stride:
		// the stores in between must miss it in every covered lap.
		if acc[w].stride() != s {
			return false
		}
		for j := w + 1; j < i; j++ {
			if meets(j, 0, -1) {
				return false
			}
		}
	default:
		// (b1) Written in the previous lap: the stores after the writer in
		// that lap and before the load in its own must miss it in every
		// skipped lap (the verify lap read the writer's word), and the word
		// read back must step as the rest of the state does.
		p := &acc[-2-w]
		if p.stride() != s || p.Val[1]-a.Val[1] != a.Val[1]-a.Val[0] {
			return false
		}
		for j := -1 - w; j < len(acc); j++ {
			if meets(j, 1, 1) {
				return false
			}
		}
		for j := 0; j < i; j++ {
			if meets(j, 0, 1) {
				return false
			}
		}
	}
	return true
}

// hits reports whether c + x·t = 0 for some x in [lo, hi]: whether an
// access whose address is c words past another's when x = 0, and which
// gains t words on it per lap, meets it in one of the laps lo..hi.
func hits(c, t, lo, hi int64) bool {
	if t == 0 {
		return c == 0
	}
	if c%t != 0 {
		return false
	}
	x := -c / t
	return lo <= x && x <= hi
}

// replayStoreLaps writes the stores of the k laps after the verify lap into
// mem in the order they would execute, each at its address and with its
// word advanced by its per-lap step, growing mem's table once for the words
// they may define: k for each store whose address moves. It returns how
// many stores changed a word.
func replayStoreLaps(mem *isa.Memory, acc []lapAccess, k int) (changed int) {
	moving := 0
	for i := range acc {
		if acc[i].Store && acc[i].stride() != 0 {
			moving++
		}
	}
	mem.Grow(k * moving)
	for x := int64(1); x <= int64(k); x++ {
		for i := range acc {
			if a := &acc[i]; a.Store && mem.Store(a.Addr[1]+x*a.stride(), isa.Int(a.Val[1]+x*(a.Val[1]-a.Val[0]))) {
				changed++
			}
		}
	}
	return changed
}
