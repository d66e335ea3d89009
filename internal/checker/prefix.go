package checker

import (
	"slices"
	"sync"

	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symexec"
)

// Every injection of a sweep starts from the same fault-free run: the paper
// runs each one concretely up to its breakpoint (Section 6.2), and most
// breakpoints of a register sweep are never reached. The checker keeps one
// record of that run per program, detector table, watchdog and input — the
// machine before its first step and how often the run reaches each pc — in
// a small process-level memo, so a sweep, or the same input swept again by
// a later campaign, runs it once. An injection whose pc the run reaches
// fewer than Occurrence times is answered from the record without a
// machine; any other restores a pooled machine from the record and runs
// RunUntil as before, so the state at the breakpoint is the one a fresh
// machine reaches. The record counts the visits of at most maxPrefixCount
// steps: a longer run, which no deadline could interrupt while it counts,
// answers nothing from the record, and its injections run RunUntil.

// maxPrefixRecords bounds the memo; past it, the oldest record goes.
const maxPrefixRecords = 64

// maxPrefixCount bounds the steps a record counts visits over.
const maxPrefixCount = 1 << 13

// prefixKey identifies a fault-free run, with a hash of its input values;
// the record compares the values themselves.
type prefixKey struct {
	prog     *isa.Program
	dets     *detector.Table
	watchdog int
	input    uint64
}

// prefixRecord is one fault-free run: the machine before its first step,
// and for every pc how many times RunUntil would find the run about to
// execute it — once per execution, plus a visit at the watchdog, where
// RunUntil stops before the watchdog raises. visits is nil when the run is
// longer than maxPrefixCount steps.
type prefixRecord struct {
	input  []int64
	once   sync.Once
	start  *machine.Machine
	visits []int32
}

// prefixes is the memo: records by key, and their keys in insertion order
// for eviction.
var prefixes struct {
	sync.Mutex
	records map[prefixKey][]*prefixRecord
	order   []prefixKey
}

// machines pools the machines that run prefixes, and tails the ones that
// run concrete tails; each keeps the tables it grew.
var machines, tails = sync.Pool{New: func() any { return new(machine.Machine) }},
	sync.Pool{New: func() any { return new(machine.Machine) }}

// prefixFor returns the record of spec's fault-free run, running it the
// first time.
func prefixFor(spec *Spec) *prefixRecord {
	watchdog := spec.Exec.Watchdog
	if watchdog <= 0 {
		watchdog = machine.DefaultWatchdog
	}
	key := prefixKey{prog: spec.Program, dets: spec.Detectors, watchdog: watchdog, input: hashInput(spec.Input)}
	prefixes.Lock()
	var rec *prefixRecord
	for _, r := range prefixes.records[key] {
		if slices.Equal(r.input, spec.Input) {
			rec = r
			break
		}
	}
	if rec == nil {
		rec = &prefixRecord{input: slices.Clone(spec.Input)}
		if prefixes.records == nil {
			prefixes.records = make(map[prefixKey][]*prefixRecord)
		}
		if len(prefixes.order) == maxPrefixRecords {
			evictPrefix(prefixes.order[0])
			prefixes.order = prefixes.order[1:]
		}
		prefixes.records[key] = append(prefixes.records[key], rec)
		prefixes.order = append(prefixes.order, key)
	}
	prefixes.Unlock()
	rec.once.Do(func() {
		opts := machine.Options{Watchdog: watchdog, Detectors: spec.Detectors}
		rec.start = machine.New(spec.Program, spec.Input, opts)
		m := machine.New(spec.Program, spec.Input, opts)
		visits := make([]int32, spec.Program.Len())
		for m.Status() == machine.StatusRunning {
			if m.Steps() == maxPrefixCount {
				return
			}
			if pc := m.PC(); uint(pc) < uint(len(visits)) {
				visits[pc]++
			}
			m.Step()
		}
		rec.visits = visits
	})
	return rec
}

// evictPrefix drops the oldest record under key; the memo's lock is held.
func evictPrefix(key prefixKey) {
	if rs := prefixes.records[key]; len(rs) > 1 {
		prefixes.records[key] = rs[1:]
	} else {
		delete(prefixes.records, key)
	}
}

// hashInput hashes input values for prefixKey (FNV-1a, a word at a time).
func hashInput(in []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range in {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// prefixState runs inj's concrete prefix, the fault-free execution up to
// its breakpoint, and returns the symbolic state there (symexec.FromMachine),
// or nil when the fault-free run never reaches it.
func prefixState(spec *Spec, inj faults.Injection) *symexec.State {
	rec := prefixFor(spec)
	if uint(inj.PC) < uint(len(rec.visits)) && int(rec.visits[inj.PC]) < max(inj.Occurrence, 1) {
		return nil
	}
	m := machines.Get().(*machine.Machine)
	defer machines.Put(m)
	m.Restore(rec.start)
	if !m.RunUntil(inj.PC, inj.Occurrence) {
		return nil
	}
	return symexec.FromMachine(m, spec.Detectors, spec.Exec)
}
