// Package simplescalar reproduces the paper's concrete fault-injection
// baseline (Sections 6.1 and 6.3): the authors augmented the SimpleScalar
// simulator "with the capability to inject errors into the source and
// destination registers of all instructions, one at a time", injecting for
// each register "three extreme values in the integer range as well as three
// random values". Here the same campaign runs on the concrete machine model:
// identical fault selection policy, deterministic seeded randomness, and the
// same outcome classification (program output vs. crash vs. hang).
//
// The point of the baseline — and of Table 2 — is that random/extreme
// concrete injection fails to find outcomes that require a *specific*
// corrupted value, which SymPLFIED's symbolic enumeration finds easily.
//
// Most trials are the fault-free run again, and PointTrials proves so
// instead of running them. A campaign runs its fault-free run once, forward
// only as far as trials need it, recording the step at which each pc first
// executes. A trial is then answered with the fault-free run's result and
// trace tail, without running the interpreter, when one of three masking
// proofs holds:
//
//   - unreached: the fault-free run never executes the point, or first
//     reaches it when the watchdog is due, so nothing is injected;
//   - same value: the register already holds the value (or is $0), so the
//     injected state is the fault-free state;
//   - converged: after the point's instruction runs, the injected machine is
//     in the same configuration (machine.SameConfig: registers, memory,
//     output, input position, pc, step count, trace) as the fault-free
//     machine after it. The machine is deterministic, so both run on alike.
//
// Every other trial runs from the point's fault-free prefix snapshot. A
// campaign (RunResilient) asks for labels only: it classifies a result view
// that aliases the machine's output, builds no trial record, and
// classifies the fault-free result once. Cross-validation takes full Trial
// records from the same engine.
package simplescalar

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"symplfied/internal/campaign"
	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
)

// Point is one static injection site: err is injected into Reg just before
// the first dynamic execution of the instruction at PC.
type Point struct {
	PC  int
	Reg isa.Reg
	// Dst marks destination-register sites (injected before the write, so
	// usually masked — the paper injected them anyway).
	Dst bool
}

// EnumeratePoints lists the campaign's injection sites: for every instruction
// of prog, each source and destination register (the paper's policy).
func EnumeratePoints(prog *isa.Program) []Point {
	var pts []Point
	for pc := 0; pc < prog.Len(); pc++ {
		in := prog.At(pc)
		for _, r := range in.SrcRegs() {
			pts = append(pts, Point{PC: pc, Reg: r})
		}
		for _, r := range in.DstRegs() {
			pts = append(pts, Point{PC: pc, Reg: r, Dst: true})
		}
	}
	return pts
}

// Injection is one concrete experiment: write Value into Point.Reg at the
// first dynamic occurrence of Point.PC.
type Injection struct {
	Point Point
	Value int64
}

// Classifier maps a finished run to an outcome label. Crash/hang
// classification is shared; the label for normal terminations is
// application-specific (e.g. the tcas advisory value).
//
// A Classifier must be a pure function of the Result: a campaign labels
// every trial its masking proofs answer with the label of the fault-free
// result, classified once. It must not retain res.Output, which aliases
// the machine's output buffer and changes with the next trial.
// SingleValueClassifier is the one implementation.
type Classifier func(res machine.Result) string

// Labels shared by classifiers.
const (
	LabelCrash = "crash"
	LabelHang  = "hang"
	LabelOther = "other"
	// LabelPanic buckets runs whose interpreter (or classifier) panicked;
	// the panic is isolated per run so the campaign survives.
	LabelPanic = "panic"
)

// SingleValueClassifier labels normal runs by their single printed value
// when it is one of the allowed values, and "other" otherwise — the Table 2
// buckets for tcas (0, 1, 2, other, crash, hang).
func SingleValueClassifier(allowed ...int64) Classifier {
	ok := make(map[int64]bool, len(allowed))
	for _, v := range allowed {
		ok[v] = true
	}
	return func(res machine.Result) string {
		switch res.Status {
		case machine.StatusExcepted:
			if res.Exception != nil && res.Exception.Kind == isa.ExcTimeout {
				return LabelHang
			}
			return LabelCrash
		case machine.StatusHalted:
			var val isa.Value
			n := 0
			for _, o := range res.Output {
				if !o.IsStr {
					val = o.Val
					n++
				}
			}
			if n != 1 {
				return LabelOther
			}
			v, conc := val.Concrete()
			if !conc || !ok[v] {
				return LabelOther
			}
			return strconv.FormatInt(v, 10)
		}
		return LabelOther
	}
}

// Config describes a campaign.
type Config struct {
	Program   *isa.Program
	Input     []int64
	Detectors *detector.Table
	Watchdog  int
	Classify  Classifier
	// Seed makes the random value choices reproducible.
	Seed int64
	// RandomPerReg is the number of random values injected per site, on top
	// of the three extremes (0, MaxInt64, MinInt64). The paper used 3 for
	// the 6253-fault campaign and scaled it up for the 41082-fault one.
	RandomPerReg int
	// MaxInjections caps the campaign size; 0 means the full cross product.
	MaxInjections int
}

// Report aggregates a campaign, Table 2 style.
type Report struct {
	Total  int
	Counts map[string]int
	// Examples holds one injection per label for inspection.
	Examples map[string]Injection
	// Interrupted is true when the campaign was cancelled before running
	// every injection; the tallies cover the completed prefix.
	Interrupted bool
	// Resumed counts injections restored from a checkpoint journal instead
	// of re-executed.
	Resumed int
}

// Percent returns the share of label in the campaign (0..100).
func (r *Report) Percent(label string) float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Counts[label]) / float64(r.Total)
}

// Labels returns the observed labels, sorted.
func (r *Report) Labels() []string {
	ls := make([]string, 0, len(r.Counts))
	for l := range r.Counts {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// extremes are the paper's "three extreme values in the integer range".
var extremes = []int64{0, int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1}

// Enumerate builds the campaign's injection list deterministically.
func Enumerate(cfg Config) []Injection {
	var injs []Injection
	for g := newInjections(cfg); ; {
		inj, ok := g.next()
		if !ok {
			return injs
		}
		injs = append(injs, inj)
	}
}

// injections generates a campaign's injections in order, one at a time: for
// each point of EnumeratePoints the three extremes, then RandomPerReg values
// drawn from one generator seeded with Seed, stopping after MaxInjections.
type injections struct {
	rng       *rand.Rand
	pts       []Point
	randomPer int
	max       int
	// n counts the injections generated, and i those of pts[0].
	n, i int
}

func newInjections(cfg Config) *injections {
	g := &injections{
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		pts:       EnumeratePoints(cfg.Program),
		randomPer: cfg.RandomPerReg,
		max:       cfg.MaxInjections,
	}
	if g.randomPer <= 0 {
		g.randomPer = 3
	}
	return g
}

// next returns the next injection, or false after the last.
func (g *injections) next() (Injection, bool) {
	if g.i == len(extremes)+g.randomPer {
		g.pts, g.i = g.pts[1:], 0
	}
	if len(g.pts) == 0 || g.max > 0 && g.n == g.max {
		return Injection{}, false
	}
	inj := Injection{Point: g.pts[0]}
	if g.i < len(extremes) {
		inj.Value = extremes[g.i]
	} else {
		inj.Value = int64(g.rng.Uint64())
	}
	g.n++
	g.i++
	return inj, true
}

// PointValues returns the values injected at one site: the three extremes
// followed by randomPer seeded random values (randomPer <= 0 selects the
// paper's 3). Unlike Enumerate — whose sequential generator makes a value
// depend on every preceding site — each random value here is derived by
// hashing (seed, site, index), so the value set of a site is independent of
// which other sites a worker happens to sweep. The cross-validation harness
// depends on this: splitting a campaign across workers must not change the
// experiment at any site.
func PointValues(seed int64, pt Point, randomPer int) []int64 {
	if randomPer <= 0 {
		randomPer = 3
	}
	vals := make([]int64, 0, len(extremes)+randomPer)
	vals = append(vals, extremes...)
	for i := 0; i < randomPer; i++ {
		vals = append(vals, pointValue(seed, pt, i))
	}
	return vals
}

// pointValue derives the i-th random value of a site from a hash, keeping it
// deterministic under any sweep order or partition.
func pointValue(seed int64, pt Point, i int) int64 {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%d|%v|%d", seed, pt.PC, pt.Reg, pt.Dst, i)
	return int64(binary.BigEndian.Uint64(h.Sum(nil)[:8]))
}

// RunOne executes a single concrete injection experiment.
func RunOne(cfg Config, inj Injection) machine.Result {
	return RunOneCtx(context.Background(), cfg, inj)
}

// RunOneCtx executes a single concrete injection experiment under ctx; see
// TrialCtx for the interruption and kill-on-deadline semantics of the result.
func RunOneCtx(ctx context.Context, cfg Config, inj Injection) machine.Result {
	return TrialCtx(ctx, cfg, inj).Result
}

// TraceTailLen is how many trailing program counters a trial records — the
// crash-site context carried into cross-validation mismatch reports.
const TraceTailLen = machine.TraceTailLen

// Trial is the full record of one concrete injection experiment.
type Trial struct {
	// Result is the machine-level outcome. When the trial was killed at a
	// wall-clock deadline, Result is synthesized as an ExcTimeout exception —
	// the same classification a watchdog expiry gets (Hang) — because a run
	// that outlives its deadline is indistinguishable from one that never
	// terminates.
	Result machine.Result
	// Activated reports whether the injection point was reached (the value
	// was actually written).
	Activated bool
	// TraceTail holds the last program counters executed, oldest first.
	TraceTail []int
	// Killed marks a trial stopped by a context deadline (Result synthesized
	// as a hang). Interrupted marks a trial stopped by plain cancellation;
	// its Result is the partial state and must not be tallied.
	Killed      bool
	Interrupted bool
	// Panicked marks an interpreter panic, isolated here so one bad
	// run cannot kill a campaign.
	Panicked   bool
	PanicValue string
}

// TrialCtx executes one concrete injection experiment under ctx, recording
// activation and a trace tail, killing the run when the context's deadline
// expires (classified as a hang), and isolating panics. It is a one-trial
// PointTrials.
func TrialCtx(ctx context.Context, cfg Config, inj Injection) Trial {
	return NewPointTrials(cfg, inj.Point).Trial(ctx, inj.Value)
}

// shortcut names the masking proof that answered a trial from the fault-free
// run; ran means none did and the interpreter ran the trial to its end.
type shortcut int

const (
	ran shortcut = iota
	// unreached: the fault-free run never executes the point, or first
	// reaches it when the watchdog is due, so nothing is injected.
	unreached
	// sameValue: the register already holds the value (or is $0), so the
	// injection leaves the fault-free state as it is.
	sameValue
	// converged: after the point's instruction the machine is in the
	// configuration the fault-free run is in after it.
	converged
	numShortcuts
)

// String names the shortcut, as the shortcut label of the live counter.
func (s shortcut) String() string {
	return [numShortcuts]string{"ran", "unreached", "same-value", "converged"}[s]
}

// liveAnswered counts the trials each shortcut answered, process-wide.
var liveAnswered = func() (c [numShortcuts]*obs.Counter) {
	for s := unreached; s < numShortcuts; s++ {
		c[s] = obs.Default().Counter(obs.MConcreteAnswered, obs.L("shortcut", s.String()))
	}
	return c
}()

// nowhere is a program counter no instruction has.
const nowhere = -1

// pollMask gates how often the fault-free run polls its context: before
// every pollMask+1-th instruction, as a machine run does.
const pollMask = 1023

// faultFree is a campaign's fault-free run, run forward only as far as a
// trial needs it. first holds, for each pc, the step count before its first
// execution (-1: not seen yet); once m has stopped, its result and trace
// tail are the record of every trial a shortcut answers.
type faultFree struct {
	m     machine.Machine
	first []int
	// label is the classifier's label of the finished run, once labelled.
	label    string
	labelled bool
}

// runTo runs the fault-free run on until it is about to execute pc for the
// first time (pc outside the program: until it stops) or ctx interrupts it.
func (f *faultFree) runTo(ctx context.Context, pc int) {
	m := &f.m
	for m.Status() == machine.StatusRunning {
		at := m.PC()
		if uint(at) < uint(len(f.first)) && f.first[at] < 0 {
			f.first[at] = m.Steps()
			if at == pc {
				return
			}
		}
		if m.Steps()&pollMask == 0 && ctx.Err() != nil {
			return
		}
		m.Step()
	}
}

// reach runs the fault-free run until it is known whether it executes pc:
// at is the step count before the first execution, or -1 when the run
// stopped without one. ok is false when ctx interrupted the run first.
func (f *faultFree) reach(ctx context.Context, pc int) (at int, ok bool) {
	in := uint(pc) < uint(len(f.first))
	if !in || f.first[pc] < 0 {
		f.runTo(ctx, pc)
	}
	if in && f.first[pc] >= 0 {
		return f.first[pc], true
	}
	return -1, f.m.Status() != machine.StatusRunning
}

// PointTrials runs the trials of one injection point, and of every point it
// is moved to in one campaign. The fault-free prefix runs once, up to the
// point's first execution; each trial then restores that snapshot into a
// reused machine, writes its value and runs on — unless a masking proof
// answers it from the campaign's fault-free run (see the package doc).
// Every Trial it returns equals the record of a run from scratch that
// writes the value just before the first execution of the point. A
// PointTrials is not safe for concurrent use.
type PointTrials struct {
	pt       Point
	classify Classifier
	// start is the machine before its first step. ff is the fault-free run
	// from it, shared by every point (nil until a trial needs it). base holds
	// a state of the fault-free run, up to this point's first execution
	// (valid while primed); next is that first execution's successor state
	// when nextPC is the point's pc; work runs each trial.
	start      *machine.Machine
	ff         *faultFree
	base, next machine.Machine
	work       machine.Machine
	primed     bool
	nextPC     int
	// hits counts the trials each shortcut answered.
	hits [numShortcuts]int
}

// NewPointTrials prepares the trials of pt under cfg. Nothing runs until the
// first Trial.
func NewPointTrials(cfg Config, pt Point) *PointTrials {
	return &PointTrials{
		pt:       pt,
		classify: cfg.Classify,
		start: machine.New(cfg.Program, cfg.Input, machine.Options{
			Watchdog:  cfg.Watchdog,
			Detectors: cfg.Detectors,
		}),
		nextPC: nowhere,
	}
}

// moveTo retargets p at another point of the same campaign, keeping its
// machines, their storage and the fault-free run.
func (p *PointTrials) moveTo(pt Point) { p.pt = pt }

// faultFreeRun returns the campaign's fault-free run, starting it if needed.
func (p *PointTrials) faultFreeRun() *faultFree {
	if p.ff == nil {
		p.ff = &faultFree{first: make([]int, p.start.Program().Len())}
		for i := range p.ff.first {
			p.ff.first[i] = -1
		}
		p.ff.m.Restore(p.start)
	}
	return p.ff
}

// outcome is where a trial ended, before it is recorded: m is the machine
// whose state it is — the fault-free run's when a shortcut answered it.
type outcome struct {
	m           *machine.Machine
	answered    shortcut
	activated   bool
	killed      bool
	interrupted bool
	panicked    bool
	panicValue  string
}

// result is the trial's Result, its Output aliasing m's. A trial killed at
// its deadline gets a synthesized watchdog-style timeout.
func (o *outcome) result() machine.Result {
	res := o.m.ResultView()
	if o.killed {
		res.Status = machine.StatusExcepted
		res.Exception = &isa.Exception{
			Kind:   isa.ExcTimeout,
			PC:     o.m.PC(),
			Detail: fmt.Sprintf("killed at wall-clock deadline after %d instructions", res.Steps),
		}
	}
	return res
}

// Trial injects v at the point under ctx. Cancellation and deadlines behave
// as in a from-scratch run that polls ctx every machine poll interval: a
// context already done interrupts the trial before its first instruction.
// A point the fault-free run never reaches — or first reaches when the
// watchdog is already due — yields the fault-free result, not activated.
func (p *PointTrials) Trial(ctx context.Context, v int64) Trial {
	o := p.run(ctx, v)
	tr := Trial{
		Activated:   o.activated,
		Killed:      o.killed,
		Interrupted: o.interrupted,
		Panicked:    o.panicked,
		PanicValue:  o.panicValue,
	}
	if o.m != nil {
		tr.TraceTail = o.m.TraceTail()
	}
	if !o.panicked {
		tr.Result = o.result()
		tr.Result.Output = append(make([]machine.OutItem, 0, len(tr.Result.Output)), tr.Result.Output...)
	}
	return tr
}

// label injects v at the point under ctx and classifies the result without
// recording the trial. A trial a shortcut answers takes the fault-free run's
// label, classified once per campaign. interrupted reports a trial ctx
// stopped, which must not be tallied.
func (p *PointTrials) label(ctx context.Context, v int64) (label string, interrupted bool) {
	o := p.run(ctx, v)
	switch {
	case o.interrupted || o.killed:
		// ctx here is the campaign's context: both cancellation and an
		// expired campaign deadline mean "stop now", not "tally a hang".
		return "", true
	case o.panicked:
		return LabelPanic, false
	case o.answered != ran:
		if !p.ff.labelled {
			p.ff.label, p.ff.labelled = classifySafely(p.classify, o.m.ResultView()), true
		}
		return p.ff.label, false
	}
	return classifySafely(p.classify, o.m.ResultView()), false
}

// run carries out the trial of v under ctx. A panic is isolated into a
// panicked outcome, and the machine it happened on is rebuilt before it is
// used again.
func (p *PointTrials) run(ctx context.Context, v int64) (o outcome) {
	var (
		cur       *machine.Machine
		activated bool
	)
	defer func() {
		if r := recover(); r != nil {
			o = outcome{m: cur, activated: activated, panicked: true, panicValue: fmt.Sprint(r)}
			switch {
			case cur == &p.base:
				p.primed = false
			case p.ff != nil && cur == &p.ff.m:
				p.ff = nil
			}
		}
	}()
	if ctx.Err() != nil {
		cur = &p.work
		p.work.Restore(p.start)
		return runOn(ctx, cur, false)
	}
	ff := p.faultFreeRun()
	// answer is the trial's outcome when shortcut s proves it is the
	// fault-free run.
	answer := func(s shortcut) outcome {
		cur = &ff.m
		if ff.m.Status() == machine.StatusRunning {
			ff.runTo(ctx, nowhere)
			if ff.m.Status() == machine.StatusRunning {
				return settle(ctx, cur, activated)
			}
		}
		p.hits[s]++
		liveAnswered[s].Inc()
		return outcome{m: cur, answered: s, activated: activated}
	}
	cur = &ff.m
	at, ok := ff.reach(ctx, p.pt.PC)
	if !ok {
		return settle(ctx, cur, false)
	}
	if at < 0 || at >= ff.m.Watchdog() {
		return answer(unreached)
	}
	cur = &p.base
	if !p.primed || p.base.Steps() > at {
		p.base.Restore(p.start)
		p.primed = true
	}
	if !p.base.RunUntilCtx(ctx, p.pt.PC) {
		return settle(ctx, cur, false)
	}
	activated = true
	if p.pt.Reg == isa.RegZero || p.base.Reg(p.pt.Reg) == isa.Int(v) {
		return answer(sameValue)
	}
	if p.nextPC != p.pt.PC {
		cur = &p.next
		p.nextPC = nowhere
		p.next.Restore(&p.base)
		p.next.Step()
		p.nextPC = p.pt.PC
	}
	cur = &p.work
	p.work.Restore(&p.base)
	p.work.SetReg(p.pt.Reg, isa.Int(v))
	p.work.Step()
	r := p.pt.Reg
	if p.work.Reg(r) == p.next.Reg(r) && p.work.SameConfig(&p.next) {
		return answer(converged)
	}
	return runOn(ctx, cur, true)
}

// runOn runs m on until it stops or ctx interrupts it, without copying its
// output, and returns its outcome.
func runOn(ctx context.Context, m *machine.Machine, activated bool) outcome {
	for m.RunUntilCtx(ctx, nowhere) {
		m.Step() // a jump to nowhere: the fetch raises
	}
	return settle(ctx, m, activated)
}

// settle is the outcome of machine m, which has stopped or which ctx
// interrupted.
func settle(ctx context.Context, m *machine.Machine, activated bool) outcome {
	o := outcome{m: m, activated: activated}
	if m.Status() == machine.StatusRunning {
		o.killed = errors.Is(ctx.Err(), context.DeadlineExceeded)
		o.interrupted = !o.killed
	}
	return o
}

// classifySafely labels res, isolating a panicking classifier into the
// LabelPanic bucket.
func classifySafely(classify Classifier, res machine.Result) (label string) {
	defer func() {
		if r := recover(); r != nil {
			label = LabelPanic
		}
	}()
	return classify(res)
}

// Run executes the whole campaign and tallies outcomes.
func Run(cfg Config) (*Report, error) {
	return RunResilient(context.Background(), cfg, Resilience{})
}

// Resilience configures the operational hardening of a concrete campaign:
// checkpointing completed runs to a journal and resuming from one.
type Resilience struct {
	// Checkpoint is the journal file path; empty disables checkpointing.
	Checkpoint string
	// Resume skips injections the journal already records. Requires
	// Checkpoint; a missing journal file starts the campaign fresh.
	Resume bool
}

// journalKind tags journals written by the concrete runner, so symbolic and
// concrete checkpoints can never be confused.
const journalKind = "concrete"

// runRecord is the journaled outcome of one concrete injection.
type runRecord struct {
	Label string `json:"label"`
}

// fingerprint hashes the campaign identity: program text, input, fault
// selection policy and watchdog. Classifier labels are not hashed (functions
// have no canonical form); resuming with a different classifier mixes label
// vocabularies but never mixes programs or fault lists.
func fingerprint(cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "program\n%s\n", cfg.Program.String())
	fmt.Fprintf(h, "input %v\n", cfg.Input)
	fmt.Fprintf(h, "watchdog %d seed %d randomPerReg %d max %d\n",
		cfg.Watchdog, cfg.Seed, cfg.RandomPerReg, cfg.MaxInjections)
	return hex.EncodeToString(h.Sum(nil))
}

// key is the journal key of a concrete injection.
func key(inj Injection) string {
	return fmt.Sprintf("@%d %s dst=%v val=%d", inj.Point.PC, inj.Point.Reg, inj.Point.Dst, inj.Value)
}

// RunResilient executes the campaign under ctx with checkpoint/resume
// support. Cancellation returns the partial tallies with Interrupted set; a
// run that panics is isolated into the LabelPanic bucket instead of killing
// the campaign. The trial itself polls ctx, so cancellation interrupts a
// hang mid-run instead of waiting out the watchdog; an interrupted trial is
// never tallied.
func RunResilient(ctx context.Context, cfg Config, res Resilience) (*Report, error) {
	rep, _, err := runCampaign(ctx, cfg, res)
	return rep, err
}

// runCampaign is RunResilient, also returning how many trials each shortcut
// answered.
func runCampaign(ctx context.Context, cfg Config, res Resilience) (*Report, [numShortcuts]int, error) {
	var hits [numShortcuts]int
	if cfg.Program == nil {
		return nil, hits, fmt.Errorf("simplescalar: nil program")
	}
	if cfg.Classify == nil {
		return nil, hits, fmt.Errorf("simplescalar: nil classifier")
	}
	if res.Resume && res.Checkpoint == "" {
		return nil, hits, fmt.Errorf("simplescalar: Resume requires a Checkpoint path")
	}
	journaled := map[string]json.RawMessage{}
	var journal *campaign.Journal
	if res.Checkpoint != "" {
		fp := fingerprint(cfg)
		if res.Resume {
			var err error
			journaled, err = campaign.LoadJournal(res.Checkpoint, journalKind, fp)
			if err != nil {
				return nil, hits, err
			}
		}
		var err error
		journal, err = campaign.OpenJournal(res.Checkpoint, journalKind, fp)
		if err != nil {
			return nil, hits, err
		}
		defer journal.Close()
	}

	// The tallies go into rep on every return, so a cut-short campaign
	// reports its completed prefix.
	rep := &Report{}
	var tl tally
	defer tl.fill(rep)
	// One PointTrials moves through the campaign, so every trial shares its
	// fault-free run, and injections lists each point's values together, so
	// consecutive trials share a point's fault-free prefix too.
	trials := NewPointTrials(cfg, Point{})
	for g := newInjections(cfg); ; {
		inj, ok := g.next()
		if !ok {
			break
		}
		var k string
		if journal != nil {
			k = key(inj)
			if raw, ok := journaled[k]; ok {
				var rec runRecord
				if err := json.Unmarshal(raw, &rec); err == nil {
					tl.add(inj, rec.Label)
					rep.Resumed++
					continue
				}
			}
		}
		trials.moveTo(inj.Point)
		label, interrupted := trials.label(ctx, inj.Value)
		if interrupted {
			rep.Interrupted = true
			break
		}
		tl.add(inj, label)
		if journal != nil {
			if err := journal.Append(k, runRecord{Label: label}); err != nil {
				return rep, trials.hits, err
			}
		}
	}
	return rep, trials.hits, nil
}

// tally counts a campaign's labels. A campaign sees a handful of labels, so
// scanning them beats a map update per trial.
type tally struct {
	labels   []string
	counts   []int
	examples []Injection // the first injection of each label
}

// add counts one injection's label.
func (t *tally) add(inj Injection, label string) {
	for i, l := range t.labels {
		if l == label {
			t.counts[i]++
			return
		}
	}
	t.labels = append(t.labels, label)
	t.counts = append(t.counts, 1)
	t.examples = append(t.examples, inj)
}

// fill writes the tallies into rep.
func (t *tally) fill(rep *Report) {
	rep.Counts = make(map[string]int, len(t.labels))
	rep.Examples = make(map[string]Injection, len(t.labels))
	for i, l := range t.labels {
		rep.Counts[l] = t.counts[i]
		rep.Examples[l] = t.examples[i]
		rep.Total += t.counts[i]
	}
}
