package checker

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"reflect"
	"sort"

	"symplfied/internal/analysis"
	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/symbolic"
	"symplfied/internal/symexec"
	"symplfied/internal/trace"
)

// This file implements post-dominator state merging (Spec.MergeStates), the
// program-level analogue of veritesting's static merging adapted to
// SymPLFIED's explicit-state search. The unmerged explorer pays for every
// fork twice over: the forked states re-execute the instructions after the
// join point separately even though those instructions cannot tell the
// states apart, and a state that enters a deterministic loop re-executes the
// same cycle lap after lap until the watchdog fires. The merged explorer
// attacks both:
//
//   - States that rejoin at a control-flow merge point (the immediate
//     post-dominator of a branch, see internal/analysis.PostDom) with
//     identical concrete skeletons — equal PC, registers, memory, streams —
//     are fused into one representative carrying the sibling worlds'
//     constraint stores and traces. The representative executes each
//     instruction the worlds cannot distinguish (symexec.ShareableStep) once
//     for all of them, and splits back into singles the moment a step could
//     observe the difference. The fused worlds form an ite-style disjunction
//     over the same skeleton.
//
//   - A single state that revisits its own configuration (everything equal
//     except the step counter, symexec.LoopHash) inside a deterministic
//     event-free run is in a cycle it can never leave: only the watchdog
//     ends it. The explorer fast-forwards whole laps by advancing the step
//     counter and lets the watchdog raise at exactly the step count the
//     unmerged run would have reached. Loops that never recur exactly — a
//     live counter marching toward the watchdog — get a second chance via
//     affine lap extrapolation (machine.AffineLapOK): when a lap provably
//     applies the same linear register map every iteration, the explorer
//     adds k laps of delta to the registers and jumps the step counter in
//     O(1).
//
// Both transformations preserve verdicts exactly: terminal states, outcome
// tallies, findings (bytes, traces and all) and truncation flags match the
// unmerged exploration, because fused states split before any step that
// could distinguish them and accelerated cycles are provably configuration-
// identical laps. What changes is StatesExplored, which counts physical
// state observations — the whole point. SYMPLFIED_CHECK_MERGING re-explores
// every merged injection unmerged and panics on drift, discharging the
// equivalence obligation dynamically the way SYMPLFIED_CHECK_SUMMARIES does
// for the summary proof.

// liveMerged counts injections swept by the merged explorer.
var liveMerged = obs.Default().Counter(obs.MMergedInjections)

// CheckMergingEnv names the environment variable that arms the merging
// cross-check: every injection the merged explorer sweeps is re-explored
// unmerged and the run panics if the verdict-bearing report fields (or the
// findings, when exactly comparable) differ.
const CheckMergingEnv = "SYMPLFIED_CHECK_MERGING"

var checkMerging = os.Getenv(CheckMergingEnv) != ""

// SetCheckMerging arms (or disarms) the merging cross-check programmatically
// — the same switch CheckMergingEnv flips at process start — and returns a
// function restoring the previous setting. Not safe to flip concurrently
// with a running sweep.
func SetCheckMerging(on bool) (restore func()) {
	prev := checkMerging
	checkMerging = on
	return func() { checkMerging = prev }
}

// MergeContext carries the control-flow analysis a merged sweep shares
// across injections (and, via cluster/campaign, across tasks in one
// process). Create one with NewMergeContext and place it in Spec.Merge, or
// just set Spec.MergeStates and let RunCtx build it. The zero value is not
// usable. MergeContext is safe for concurrent use (the analysis is
// immutable after construction).
type MergeContext struct {
	analysis *analysis.Analysis
}

// NewMergeContext analyzes prog (with dets) and returns a context ready to
// answer merge-point queries.
func NewMergeContext(prog *isa.Program, dets *detector.Table) *MergeContext {
	return &MergeContext{analysis: analysis.Analyze(prog, dets)}
}

// Analysis exposes the underlying control-flow results (for diagnostics and
// tests).
func (m *MergeContext) Analysis() *analysis.Analysis { return m.analysis }

// MergePoint reports whether pc starts a basic block where diverged paths
// rejoin (the immediate post-dominator of some branching block). Deferring
// states here maximizes fusion opportunities without checking every pc.
func (m *MergeContext) MergePoint(pc int) bool {
	return m != nil && m.analysis.PostDom.MergePoint(pc)
}

// EnsureMerge resolves the spec's merging configuration: nil when merging is
// off, the shared context when one is installed, or a freshly built one
// (installed on the spec) when MergeStates is set.
func (spec *Spec) EnsureMerge() *MergeContext {
	if !spec.MergeStates || spec.Program == nil {
		return nil
	}
	if spec.Merge == nil {
		spec.Merge = NewMergeContext(spec.Program, spec.Detectors)
	}
	return spec.Merge
}

// mworld is one fused sibling's private view: its constraint store, its
// decision trace, and its step counter at fuse time. Everything else —
// registers, memory, streams — is shared with the representative, which the
// skeleton equality (symexec.MergeCompatible) makes exact.
type mworld struct {
	sym   *symbolic.Store
	tr    *trace.Node
	steps int
}

// mentry is one unit of the merged explorer's frontier: a plain state
// (worlds nil) or a fused representative carrying its sibling worlds.
// worlds[0] mirrors the representative's own store/trace/steps at fuse
// time, so splitting world 0 is the representative itself.
type mentry struct {
	st *symexec.State
	// worlds is nil for singles; otherwise len >= 2 and worlds[0] is the
	// representative's own view.
	worlds []mworld
	// repSteps0 is st.Steps at fuse time; each world's counter at split is
	// its fuse-time counter plus the shared steps executed since.
	repSteps0 int
	// skipVisited marks entries re-queued by a flush or a split: their
	// visited check already happened at their original pop (their key is
	// unchanged, so re-checking would wrongly drop them).
	skipVisited bool
	// defersSeen lists the merge-point pcs this state has already parked at
	// once. A state fuses with whatever arrived at a merge point in the same
	// flush wave; parking again on a later visit would miss its wave anyway,
	// and — decisively — a hang loop whose body contains a merge point would
	// park every lap, resetting the cycle accelerator's checkpoint each time
	// and making the hang impossible to accelerate. The list is bounded by
	// the program's merge-point count and searched linearly.
	defersSeen []int
}

// deferredAt reports whether the entry already parked at merge point pc.
func (e *mentry) deferredAt(pc int) bool {
	for _, p := range e.defersSeen {
		if p == pc {
			return true
		}
	}
	return false
}

// exploreInjectionMerged is the merged-explorer variant of exploreInjection:
// same concrete prefix, same breadth-first discipline, same terminal
// classification, but with three extra moves — running states arriving at a
// merge point are parked until the rest of the frontier drains, parked
// states with identical skeletons are fused and stepped once for all
// worlds, and deterministic event-free cycles are fast-forwarded to the
// watchdog. StatesExplored counts physical state observations (a shared
// step counts once however many worlds ride it; accelerated laps count
// zero), so the report shows the savings directly.
func exploreInjectionMerged(ctx context.Context, spec Spec, inj faults.Injection, ir *InjectionReport, mc *MergeContext) error {
	budget := spec.effectiveBudget()

	m := machine.New(spec.Program, spec.Input, machine.Options{
		Watchdog:  spec.Exec.Watchdog,
		Detectors: spec.Detectors,
	})
	if !m.RunUntil(inj.PC, inj.Occurrence) {
		return nil // fault never activated
	}
	ir.Activated = true
	ir.Merged = true
	liveMerged.Inc()

	st := symexec.FromMachine(m, spec.Detectors, spec.Exec)
	st.Stats = &ir.Exec

	initial, err := inj.Apply(st)
	if err != nil {
		return err
	}

	// The main frontier is the same head-indexed queue as the unmerged
	// explorer; deferred holds running states parked at merge points, flushed
	// (grouped, fused, re-queued) when the main frontier drains so every
	// state that can reach a merge point has arrived before fusion.
	frontier := make([]*mentry, 0, len(initial))
	for _, s := range initial {
		frontier = append(frontier, &mentry{st: s})
	}
	head := 0
	var deferred []*mentry
	var visited map[uint64]struct{}
	var keyer *symexec.Keyer
	if spec.Dedup {
		visited = make(map[uint64]struct{}, 1024)
		keyer = symexec.NewKeyer()
	}
	var published int64
	defer func() { liveFrontier.Add(-published) }()
	states := stateTally{ir: ir}
	defer states.flush()
	syncFrontier := func() {
		width := int64(len(frontier)-head) + int64(len(deferred))
		ir.Exec.ObserveFrontier(int(width))
		liveFrontier.Add(width - published)
		published = width
	}
	syncFrontier()

	// countState charges one physical state observation against the budget;
	// false stops the search (budget exhausted or context done).
	countState := func(cur *symexec.State) bool {
		if ir.StatesExplored >= budget {
			ir.BudgetExhausted = true
			return false
		}
		if ir.StatesExplored&ctxCheckMask == 0 {
			states.flush()
			if cerr := ctx.Err(); cerr != nil {
				ir.Interrupted = true
				ir.TimedOut = errors.Is(cerr, context.DeadlineExceeded)
				return false
			}
		}
		ir.StatesExplored++
		ir.Truncated = ir.Truncated || cur.Truncated
		return true
	}

	classifyTerminal := func(cur *symexec.State) {
		ir.TerminalStates++
		ir.Outcomes[cur.Outcome()]++
		if id, ok := cur.FiredDetector(); ok {
			if ir.DetectorHits == nil {
				ir.DetectorHits = make(map[int64]int)
			}
			ir.DetectorHits[id]++
		}
		ir.Exec.ObserveDepth(int64(cur.Steps))
		if spec.Predicate.Match(cur) {
			if spec.MaxFindings == 0 || len(ir.Findings) < spec.MaxFindings {
				ir.Findings = append(ir.Findings, newFinding(inj, cur, spec.DiscardStates))
				liveFindings.Inc()
			}
		}
	}

	// cpMem holds the memory at runSingle's cycle checkpoint; one buffer
	// serves every run of the search.
	var cpMem isa.Memory
	// runSingle drives one plain state through its in-place run, parking it
	// at merge points it has not parked at before and fast-forwarding
	// detected cycles — exactly recurring ones via LoopHash, affine ones via
	// the two-lap probe in affine.go; false stops the search.
	runSingle := func(e *mentry) bool {
		cur := e.st
		w := cur.Opts.Watchdog
		// Cycle-accelerator checkpoint, valid for this in-place run only: a
		// fork, terminal, or parking ends the run and discards it. window
		// records the pc sequence executed since the checkpoint so a
		// detected lap can be analyzed for affinity.
		var (
			cpPC    = -1
			cpTrace *trace.Node
			cpHash  uint64
			cpSteps int
			cpRegs  [isa.NumRegs]isa.Value
			cpRoots symbolic.RootID
			window  []int
			probe   *affineProbe
			misses  = 0
			run     = 0
			nextCP  = machine.CycleCheckpointStart
		)
		for {
			if cur.Running() && mc.MergePoint(cur.PC) && !e.deferredAt(cur.PC) {
				e.defersSeen = append(e.defersSeen, cur.PC)
				deferred = append(deferred, e)
				return true
			}
			if !countState(cur) {
				return false
			}
			if !cur.Running() {
				classifyTerminal(cur)
				return true
			}
			prePC := cur.PC
			if !cur.StepInPlace() {
				ir.Exec.ObserveDepth(int64(cur.Steps))
				for _, s := range cur.Successors() {
					frontier = append(frontier, &mentry{st: s})
				}
				return true
			}
			run++
			if !cur.Running() {
				continue // watchdog or exception: classify on the next lap
			}
			if cpPC >= 0 && len(window) <= machine.MaxAffineLap {
				window = append(window, prePC)
			}
			if probe != nil {
				// Verify lap: the pc sequence must replay the recorded lap.
				if probe.window[probe.idx] != prePC {
					probe = nil // control diverged: not affine after all
				} else if probe.idx++; probe.idx == len(probe.window) {
					// Back at the lap boundary: the lap is affine iff the
					// delta repeated exactly (delta evolution is linear, so
					// one repeat proves every future lap's delta equal).
					if d2, ok := machine.LapDelta(&probe.regs0, &cur.Regs); ok && d2 == probe.delta &&
						cur.Sym.RootsMinted() == cpRoots && storeHash(cur.Sym) == probe.sym {
						l := len(probe.window)
						if k := (w - 1 - cur.Steps) / l; k > 0 {
							machine.AdvanceAffine(&cur.Regs, &probe.delta, k)
							cur.Steps += k * l
							ir.Exec.CountCycle(int64(k * l))
						}
					}
					probe = nil
					cpPC = -1 // re-arm at the next doubling
				}
				continue
			}
			if cur.PC == cpPC && cur.Trace == cpTrace {
				// A lap that minted fresh roots is never accelerated:
				// skipping laps would skip their numbers, and every later
				// root would be numbered differently from the unmerged run.
				// Otherwise registers, the cheap and usually decisive part
				// of the configuration (a live counter differs every lap),
				// are compared before the rest is hashed.
				if cur.Sym.RootsMinted() != cpRoots {
					cpPC = -1
				} else if cur.Regs == cpRegs && cur.LoopHash() == cpHash {
					// The configuration recurred with only Steps advanced
					// inside a deterministic event-free run: every further
					// lap is identical. Fast-forward whole laps, staying
					// below the watchdog so the remaining real steps raise
					// it at exactly the unmerged run's step count.
					if l := cur.Steps - cpSteps; l > 0 {
						if k := (w - 1 - cur.Steps) / l; k > 0 {
							cur.Steps += k * l
							ir.Exec.CountCycle(int64(k * l))
						}
					}
					cpPC = -1 // re-arm at the next doubling
				} else {
					// The pc recurred but the state did not: a loop with
					// live registers. Arm an affine probe on the recorded
					// lap if its structure allows extrapolation and it left
					// memory as it found it (the proof covers registers
					// only: a counter kept in memory is not affine).
					if misses++; misses >= machine.CycleMissLimit {
						cpPC = -1 // stop hashing a loop that never settles
					} else if len(window) == cur.Steps-cpSteps && cur.Mem.Equal(&cpMem) {
						if d, ok := machine.LapDelta(&cpRegs, &cur.Regs); ok &&
							machine.AffineLapOK(cur.Prog, window, &d) {
							probe = &affineProbe{
								window: append([]int(nil), window...),
								delta:  d,
								regs0:  cur.Regs,
								sym:    storeHash(cur.Sym),
							}
						}
					}
				}
			}
			if probe == nil && run >= nextCP {
				cpPC, cpTrace, cpHash, cpSteps = cur.PC, cur.Trace, cur.LoopHash(), cur.Steps
				cpRegs, cpRoots = cur.Regs, cur.Sym.RootsMinted()
				cpMem.CopyFrom(&cur.Mem)
				window = window[:0]
				misses = 0
				for nextCP <= run {
					nextCP *= 2
				}
			}
		}
	}

	// runMerged executes the shared prefix of a fused entry — every step no
	// world can observe — once, then splits back into singles; false
	// stops the search.
	runMerged := func(e *mentry) bool {
		rep := e.st
		w := rep.Opts.Watchdog
		// The most-advanced world hits the watchdog first; its lead over the
		// representative is constant across shared steps.
		maxLag := 0
		for _, wd := range e.worlds {
			if lag := wd.steps - e.repSteps0; lag > maxLag {
				maxLag = lag
			}
		}
		for rep.Steps+maxLag < w && rep.ShareableStep() {
			if !countState(rep) {
				return false
			}
			if !rep.StepInPlace() || !rep.Running() {
				// ShareableStep promised a deterministic non-terminal step;
				// TestShareableStepIsInvisible pins the contract, and a
				// violation here would corrupt every fused world.
				panic(fmt.Sprintf("checker: shareable step at pc %d forked or terminated", rep.PC))
			}
			ir.Exec.CountMerged(int64(len(e.worlds) - 1))
		}
		// Split before the first step a world could observe: each world gets
		// the representative's (shared) skeleton with its own store, trace
		// and advanced step counter. The split pc joins defersSeen — the
		// splits are still skeleton-identical, so parking there again would
		// just fuse and split them forever.
		delta := rep.Steps - e.repSteps0
		seen := append(append([]int(nil), e.defersSeen...), rep.PC)
		for i, wd := range e.worlds {
			c := rep
			if i > 0 {
				c = rep.Clone()
				c.Sym = wd.sym
				c.Trace = wd.tr
				c.Steps = wd.steps + delta
			}
			frontier = append(frontier, &mentry{
				st:          c,
				skipVisited: true,
				defersSeen:  append([]int(nil), seen...),
			})
		}
		return true
	}

	// flushDeferred fuses the parked states (groupParked) and re-queues
	// groups of two or more as merged entries, loners unchanged.
	flushDeferred := func() {
		groups := groupParked(deferred)
		deferred = deferred[:0]
		for _, g := range groups {
			if len(g) == 1 {
				e := g[0]
				e.skipVisited = true
				frontier = append(frontier, e)
				continue
			}
			rep := g[0]
			merged := &mentry{
				st:          rep.st,
				repSteps0:   rep.st.Steps,
				skipVisited: true,
				defersSeen:  rep.defersSeen,
			}
			merged.worlds = make([]mworld, len(g))
			for i, m := range g {
				merged.worlds[i] = mworld{sym: m.st.Sym, tr: m.st.Trace, steps: m.st.Steps}
				for _, pc := range m.defersSeen {
					if !merged.deferredAt(pc) {
						merged.defersSeen = append(merged.defersSeen, pc)
					}
				}
			}
			frontier = append(frontier, merged)
		}
	}

	for head < len(frontier) || len(deferred) > 0 {
		if head >= len(frontier) {
			flushDeferred()
			syncFrontier()
			continue
		}
		e := frontier[head]
		frontier[head] = nil
		head++
		if head >= 1024 && head*2 >= len(frontier) {
			n := copy(frontier, frontier[head:])
			frontier = frontier[:n]
			head = 0
		}
		if visited != nil && !e.skipVisited {
			k := keyer.Hash(e.st)
			if _, seen := visited[k]; seen {
				ir.Exec.CountDedup()
				continue
			}
			visited[k] = struct{}{}
		}
		var ok bool
		if e.worlds != nil {
			ok = runMerged(e)
		} else {
			ok = runSingle(e)
		}
		if !ok {
			return nil
		}
		syncFrontier()
	}
	return nil
}

// groupParked partitions parked states into merge groups by the exact
// skeleton comparison (symexec.MergeCompatible): groups in order of their
// first member's arrival, members in arrival order. Only groups in the same
// skeletonBucket are compared, and no whole state is hashed.
func groupParked(parked []*mentry) [][]*mentry {
	var groups [][]*mentry
	byBucket := make(map[uint64][]int) // bucket -> indexes into groups
	for _, e := range parked {
		h := skeletonBucket(e.st)
		placed := false
		for _, gi := range byBucket[h] {
			if symexec.MergeCompatible(groups[gi][0].st, e.st) {
				groups[gi] = append(groups[gi], e)
				placed = true
				break
			}
		}
		if !placed {
			byBucket[h] = append(byBucket[h], len(groups))
			groups = append(groups, []*mentry{e})
		}
	}
	return groups
}

// skeletonBucket digests the pc and registers, with err as one class, the
// way symexec.MergeCompatible compares them: merge-compatible states always
// share a bucket, so grouping within buckets finds exactly the groups a
// scan over all parked states would. MergeCompatible is an equivalence, so
// at most one group per bucket can accept a state.
func skeletonBucket(s *symexec.State) uint64 {
	h := uint64(s.PC)
	for _, v := range s.Regs {
		x := uint64(0x9e3779b97f4a7c15) // err
		if n, ok := v.Concrete(); ok {
			x = uint64(n)
		}
		h = (h ^ x) * 0x100000001b3
	}
	return h
}

// checkMergedExploration is the SYMPLFIED_CHECK_MERGING assertion: re-explore
// the injection unmerged and panic on any drift in the verdict-bearing
// fields. The comparison is tiered by what is exactly comparable:
//
//   - Activation always matches (the concrete prefix is identical).
//   - When either side exhausted its state budget the searches truncated
//     different frontiers (merging's savings mean the merged search got
//     further), so the remaining tallies legitimately diverge.
//   - Otherwise terminal counts, outcome tallies and truncation must match.
//   - Findings are compared canonically (order-insensitive: deferral changes
//     BFS order) unless deduplication is on — dedup keeps the terminal
//     multiset but may elect different trace representatives among key-equal
//     states — or a MaxFindings cap clipped either side, where order decides
//     which findings were kept.
func checkMergedExploration(ctx context.Context, spec Spec, inj faults.Injection, merged InjectionReport) {
	plain := spec
	plain.MergeStates = false
	plain.Merge = nil
	explored, err := runInjectionReal(ctx, plain, inj, false)
	if err != nil {
		panic(fmt.Sprintf("merging cross-check: %s: unmerged exploration failed: %v", inj, err))
	}
	if merged.Panicked || explored.Panicked || merged.Interrupted || explored.Interrupted {
		return // abnormal or wall-clock-dependent endings are not comparable
	}
	if merged.Activated != explored.Activated {
		panic(fmt.Sprintf("merging cross-check: %s: activation drift: merged=%v unmerged=%v",
			inj, merged.Activated, explored.Activated))
	}
	if merged.BudgetExhausted || explored.BudgetExhausted {
		return
	}
	if merged.TerminalStates != explored.TerminalStates || merged.Truncated != explored.Truncated ||
		!maps.Equal(merged.Outcomes, explored.Outcomes) {
		panic(fmt.Sprintf("merging cross-check: %s: tally drift:\nmerged:   terminals=%d truncated=%v outcomes=%v\nunmerged: terminals=%d truncated=%v outcomes=%v",
			inj, merged.TerminalStates, merged.Truncated, merged.Outcomes,
			explored.TerminalStates, explored.Truncated, explored.Outcomes))
	}
	capped := spec.MaxFindings > 0 &&
		(len(merged.Findings) >= spec.MaxFindings || len(explored.Findings) >= spec.MaxFindings)
	if spec.Dedup || capped {
		return
	}
	mf, ef := CanonicalFindings(merged.Findings), CanonicalFindings(explored.Findings)
	if !reflect.DeepEqual(mf, ef) {
		panic(fmt.Sprintf("merging cross-check: %s: findings drift:\nmerged (%d): %v\nunmerged (%d): %v",
			inj, len(mf), mf, len(ef), ef))
	}
}

// CanonicalFindings renders findings order-insensitively: the full
// description (injection, outcome, output, symbolic state) plus the decision
// trace, sorted. Two explorations of the same injection agree iff these
// slices are equal; the merged/unmerged equivalence gates (the
// SYMPLFIED_CHECK_MERGING cross-check, the merge smoke test) compare with
// this because deferral legitimately reorders a breadth-first sweep.
func CanonicalFindings(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%s trace=%v", f.Describe(), f.TraceEvents())
	}
	sort.Strings(out)
	return out
}
