// Package summary computes compositional fault summaries: for every
// function of a program it records what one injected err value, resident in
// a given entry register (or in the memory class) at function entry, can
// reach — the output stream, a detector's CHECK, control flow — and which
// registers still carry it when the function returns. Summaries compose at
// call sites (a jal consults the callee's summary instead of re-descending),
// so a campaign can classify an injection as provably benign from the
// summary of the function containing its site, the FastFlip-style
// decomposition described in PAPERS.md. Because a call composes the callee's
// per-register exit taint (a register the callee overwrites on every path
// leaves the call clean), the summaries subsume per-site register liveness:
// every register internal/analysis proves dead at a covered site is benign.
//
// Summaries are content-addressed: each function's summary is keyed by an
// FNV-1a hash of its body (entry-relative pcs, canonical operand fields),
// the detector-table slice its CHECKs reference (rendered through the shared
// internal/fingerprint encoding), and the keys of the functions it calls.
// A cache keyed this way makes incremental re-analysis automatic — mutating
// one function in place invalidates exactly that function and its transitive
// callers, and an unchanged program is a pure cache hit for every function.
//
// The analysis is a forward may-taint dataflow with exact kills: an
// instruction whose sources are untainted overwrites (kills) the taint in
// its destinations, while a tainted source taints them. Effects are
// collected at sinks — print (output), check (detector), and any place the
// tainted value can change control flow or fault (branch operands, jump
// registers, divisors, load/store addresses). A zero effect everywhere,
// including through every caller continuation the escape can return to,
// proves the injection cannot alter the program's observable behavior.
package summary

import (
	"strings"

	"symplfied/internal/analysis"
	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/obs"
)

// Live summary counters (also see the checker's summarized-injection
// counter); package-level so every Build in the process shares them.
var (
	liveComputed    = obs.Default().Counter(obs.MSummariesComputed)
	liveHits        = obs.Default().Counter(obs.MSummaryCacheHits)
	liveComposed    = obs.Default().Counter(obs.MSummariesComposed)
	liveInvalidated = obs.Default().Counter(obs.MSummariesInvalidated)
)

// Effect is a bitmask of what an injected err can reach.
type Effect uint8

const (
	// EffOutput: the tainted value can be printed — outputs may differ.
	EffOutput Effect = 1 << iota
	// EffDetector: a CHECK can read the tainted value — a detection may
	// fire (or be suppressed) that the fault-free run would not.
	EffDetector
	// EffControl: the tainted value can decide control flow or fault — a
	// branch operand, a jr target, a divisor, a load/store address. Any
	// divergence (crash, hang, different path) is possible.
	EffControl
)

// EffAll is every effect bit: the maximal, fully conservative verdict.
const EffAll = EffOutput | EffDetector | EffControl

// Benign reports whether the effect proves the injection unobservable.
func (e Effect) Benign() bool { return e == 0 }

func (e Effect) String() string {
	if e == 0 {
		return "none"
	}
	var parts []string
	if e&EffOutput != 0 {
		parts = append(parts, "output")
	}
	if e&EffDetector != 0 {
		parts = append(parts, "detector")
	}
	if e&EffControl != 0 {
		parts = append(parts, "control")
	}
	return strings.Join(parts, "|")
}

// taintLoc identifies where the err resides: register number 1..31, or
// locMem for the memory class.
type taintLoc uint8

const locMem taintLoc = isa.NumRegs

// LocEffect is the composed consequence of err residing in one entry
// location: the effects it can reach inside the function (and its callees),
// and where the taint still lives when the function returns.
type LocEffect struct {
	// Effects are the sinks the taint can reach before any return.
	Effects Effect `json:",omitempty"`
	// Out is the set of registers that may carry the taint at a `jr $31`
	// exit — the return-value registers the err can corrupt.
	Out analysis.RegSet `json:",omitempty"`
	// MemOut is true when the memory class may be tainted at an exit.
	MemOut bool `json:",omitempty"`
}

// merge joins o into l, reporting whether l changed.
func (l *LocEffect) merge(o LocEffect) bool {
	changed := false
	if l.Effects|o.Effects != l.Effects {
		l.Effects |= o.Effects
		changed = true
	}
	if l.Out.Union(o.Out) != l.Out {
		l.Out = l.Out.Union(o.Out)
		changed = true
	}
	if o.MemOut && !l.MemOut {
		l.MemOut = true
		changed = true
	}
	return changed
}

// maximalEffect is the fully conservative verdict for opaque functions.
var maximalEffect = LocEffect{Effects: EffAll, Out: analysis.AllRegs, MemOut: true}

// FuncSummary is the cacheable summary of one function: per entry register
// (index = register number; $0 is hardwired and stays zero) and for the
// memory class, the composed LocEffect of an err arriving there at entry.
// Regs[r] for a register the function provably kills on every path before
// any read is the zero LocEffect — the benign verdict.
type FuncSummary struct {
	// Name, Entry and Key restate the function identity for reports; they
	// are rewritten from the current program on every cache hit, so a
	// content-colliding body at a different address cannot mislabel itself.
	Name  string
	Entry int
	Key   string
	// Opaque mirrors Func.Opaque: every entry is the maximal effect.
	Opaque bool `json:",omitempty"`
	Regs   [isa.NumRegs]LocEffect
	Mem    LocEffect
}

// at returns the entry for a taint location.
func (s *FuncSummary) at(loc taintLoc) LocEffect {
	if loc == locMem {
		return s.Mem
	}
	return s.Regs[loc]
}

// BuildStats reports what one Build did, for incremental-analysis
// verification and the CLI: which functions were recomputed and which came
// out of the cache, in ascending entry order.
type BuildStats struct {
	// Functions is the partition size.
	Functions int
	// Computed names the functions whose summaries were (re)computed.
	Computed []string
	// Hits names the functions whose summaries were cache hits.
	Hits []string
}

// Set is the summary set of one program under one detector table: the
// function partition, one FuncSummary per function, and the continuation
// fixpoint that resolves escaped taint through caller return points. Safe
// for concurrent queries after Build returns.
type Set struct {
	Funcs *Funcs
	Stats BuildStats

	sums []*FuncSummary
	// cont[i][loc] is the effect of err residing in loc at the moment
	// function i returns, composed over every continuation the return can
	// resume at (see buildCont).
	cont [][locMem + 1]Effect
	// points memoizes propagate results for arbitrary seed points; shared
	// by every Set handed out for the same finished build.
	points *pointMemo
}

// Summaries returns the per-function summaries, index-aligned with
// Funcs.Funcs.
func (s *Set) Summaries() []*FuncSummary { return s.sums }

// Build partitions prog, computes or loads the summary of every function in
// bottom-up call-graph order, and resolves the caller-continuation fixpoint.
// cache may be nil (everything is computed). Detectors may be nil.
//
// The cache also remembers each finished set in memory under a key covering
// the whole program and detector table. When every function key still hits,
// Build returns a Set sharing that finished work instead of redoing the
// partition and the continuation fixpoint; its Stats read exactly as a warm
// rebuild's would.
func Build(prog *isa.Program, dets *detector.Table, cache *Cache) *Set {
	var pk string
	if cache != nil {
		pk = programKey(prog, dets)
		if s := cache.finishedSet(pk); s != nil {
			return s
		}
	}
	fs := Partition(prog, dets)
	s := &Set{Funcs: fs, sums: make([]*FuncSummary, len(fs.Funcs)), points: newPointMemo()}
	s.Stats.Functions = len(fs.Funcs)
	for i, f := range fs.Funcs {
		// Pre-seed zero summaries so intra-SCC compositions during the
		// fixpoint read the optimistic start value.
		s.sums[i] = &FuncSummary{Name: f.Name, Entry: f.Entry, Opaque: f.Opaque}
	}
	keys := sccKeys(fs, keyVersion)
	var order []int
	for _, scc := range sccOrder(fs) {
		s.buildSCC(scc, keys, cache)
		order = append(order, scc...)
	}
	s.buildCont()
	if cache != nil {
		cache.putFinishedSet(pk, s, keys, order)
	}
	return s
}

// buildSCC computes or loads the summaries of one strongly connected
// component of the call graph. Cached summaries are valid by construction of
// the content key; if any member misses, the whole component is recomputed
// to a fixpoint (mutual recursion makes the members interdependent).
func (s *Set) buildSCC(scc []int, keys []string, cache *Cache) {
	hit := make([]*FuncSummary, len(scc))
	all := true
	for i, fi := range scc {
		if sum, ok := cache.Get(keys[fi]); ok {
			hit[i] = sum
		} else {
			all = false
		}
	}
	if all {
		for i, fi := range scc {
			f := s.Funcs.Funcs[fi]
			hit[i].Name, hit[i].Entry, hit[i].Key = f.Name, f.Entry, keys[fi]
			s.sums[fi] = hit[i]
			s.Stats.Hits = append(s.Stats.Hits, f.Name)
			liveHits.Inc()
		}
		return
	}
	for _, fi := range scc {
		s.sums[fi].Key = keys[fi]
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range scc {
			if s.recompute(fi) {
				changed = true
			}
		}
	}
	for _, fi := range scc {
		f := s.Funcs.Funcs[fi]
		s.Stats.Computed = append(s.Stats.Computed, f.Name)
		liveComputed.Inc()
		cache.Put(keys[fi], s.sums[fi])
	}
}

// recompute refreshes every entry of function fi's summary from the current
// callee summaries, reporting whether anything grew.
func (s *Set) recompute(fi int) bool {
	f := s.Funcs.Funcs[fi]
	sum := s.sums[fi]
	if f.Opaque {
		ch := sum.Mem.merge(maximalEffect)
		for r := 1; r < isa.NumRegs; r++ {
			if sum.Regs[r].merge(maximalEffect) {
				ch = true
			}
		}
		return ch
	}
	changed := false
	for r := 1; r < isa.NumRegs; r++ {
		le := s.propagate(fi, f.Entry, flowState{regs: analysis.RegSet(0).Add(isa.Reg(r))})
		if sum.Regs[r].merge(le) {
			changed = true
		}
	}
	if sum.Mem.merge(s.propagate(fi, f.Entry, flowState{mem: true})) {
		changed = true
	}
	return changed
}
