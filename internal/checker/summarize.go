package checker

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"

	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/obs"
	"symplfied/internal/summary"
	"symplfied/internal/symexec"
)

// liveSummarized counts explorations elided by a compositional summary
// proof: the real savings knob, deliberately separate from the
// deterministic report contents (a reused report carries its
// representative's tallies so summarized and plain reports stay
// comparable; the live counter measures work that did not happen).
var liveSummarized = obs.Default().Counter(obs.MSummarizedInjections)

// CheckSummariesEnv names the environment variable that turns every reused
// summarized report into an assertion: the injection is explored anyway and
// the run panics if the exploration differs from the reused report (in
// particular, if a "provably benign" injection produced findings). The
// summary proof composes per-function taint verdicts across call sites
// under the calling-convention assumption stated on summary.Partition; this
// mode discharges that proof obligation dynamically, like
// SYMPLFIED_CHECK_KEY_COLLISIONS does for the hashed dedup keys.
const CheckSummariesEnv = "SYMPLFIED_CHECK_SUMMARIES"

var checkSummaries = os.Getenv(CheckSummariesEnv) != ""

// SetCheckSummaries arms (or disarms) the summary cross-check mode
// programmatically — the same switch CheckSummariesEnv flips at process
// start — and returns a function restoring the previous setting. Not safe
// to flip concurrently with a running sweep.
func SetCheckSummaries(on bool) (restore func()) {
	prev := checkSummaries
	checkSummaries = on
	return func() { checkSummaries = prev }
}

// SummaryContext carries the compositional summary set (internal/summary)
// and the per-site representative memo a summarized sweep shares across
// injections. Create one with NewSummaryContext and place it in
// Spec.Summaries, or just set Spec.UseSummaries and let RunCtx build it
// (consulting Spec.SummaryCache). Safe for concurrent use.
//
// Classification rests on the composed taint proof of summary.Set.EffectOf:
// an err injected into register r just before pc that provably reaches no
// output, no detector read, and no control decision — through every callee
// summary and every caller continuation — cannot change the exploration, so
// the checker explores one representative per breakpoint and reuses its
// report for the other benign registers at the same site, rewriting only the
// injection identity. This generalizes the paper's Section 6.1 syntactic
// pruning (inject only into registers the instruction reads): it covers every
// register liveness proves dead at the site — a callee's summary kills taint
// the callee overwrites on every path — and also taint that dies later, in a
// callee or in a caller (TestSummariesCoverLiveness pins both). The one
// exception is dead code no discovered function covers: such a site is
// unclassifiable, and its injections, never activated, are explored for
// real.
//
// Only transient register injections are ever summarized: a permanent
// (stuck-at) fault discards future writes, so the kill half of the taint
// argument does not apply to it.
type SummaryContext struct {
	set   *summary.Set
	sites *siteMemo
}

// siteMemo memoizes one representative exploration per breakpoint site: a
// benign injection's exploration is exactly the fault-free continuation from
// the site, whichever benign register was corrupted. Representatives are
// stored unmarked; the Summarized marker is stamped on the copies returned.
type siteMemo struct {
	mu   sync.Mutex
	memo map[siteKey]siteRep
}

func newSiteMemo() *siteMemo {
	return &siteMemo{memo: make(map[siteKey]siteRep)}
}

// siteKey keys the memo: benign registers at the same breakpoint share the
// fault-free continuation.
type siteKey struct {
	pc, occurrence int
}

// siteRep is one representative exploration plus the budget it ran under;
// reuse is only exact when the current budget cannot change the exploration.
type siteRep struct {
	rep    InjectionReport
	budget int
}

// site returns the memo key for inj.
func site(inj faults.Injection) siteKey {
	occ := inj.Occurrence
	if occ == 0 {
		occ = 1
	}
	return siteKey{pc: inj.PC, occurrence: occ}
}

// reuse returns a report for inj derived from the site's memoized
// representative, when reuse is provably exact under the current budget.
// Reuse declines (forcing a real exploration) when the memo:
//
//   - ended abnormally (interrupted, timed out, panicked, errored) — those
//     outcomes are wall-clock- or environment-dependent;
//   - recorded findings — a finding's trace and symbolic state name the
//     injected location, so only the site's own exploration reproduces them
//     (this only happens when the fault-free continuation itself satisfies
//     the predicate);
//   - ran to budget exhaustion under a different budget than the current
//     one, or completed using more states than the current budget allows
//     (the cluster's shared task budget shrinks per injection).
func (p *siteMemo) reuse(inj faults.Injection, budget int) (InjectionReport, bool) {
	p.mu.Lock()
	m, ok := p.memo[site(inj)]
	p.mu.Unlock()
	if !ok {
		return InjectionReport{}, false
	}
	rep := m.rep
	switch {
	case rep.Interrupted || rep.TimedOut || rep.Panicked || rep.Error != "":
		return InjectionReport{}, false
	case len(rep.Findings) > 0:
		return InjectionReport{}, false
	case rep.BudgetExhausted && m.budget != budget:
		return InjectionReport{}, false
	case !rep.BudgetExhausted && rep.StatesExplored > budget:
		return InjectionReport{}, false
	}
	rep.Injection = inj
	out := make(map[symexec.Outcome]int, len(m.rep.Outcomes))
	for o, n := range m.rep.Outcomes {
		out[o] = n
	}
	rep.Outcomes = out
	if len(m.rep.DetectorHits) > 0 {
		hits := make(map[int64]int, len(m.rep.DetectorHits))
		for id, n := range m.rep.DetectorHits {
			hits[id] = n
		}
		rep.DetectorHits = hits
	}
	return rep, true
}

// store memoizes a representative exploration for inj's site.
func (p *siteMemo) store(inj faults.Injection, rep InjectionReport, budget int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.memo[site(inj)]; !dup {
		p.memo[site(inj)] = siteRep{rep: rep, budget: budget}
	}
}

// effectiveBudget resolves the spec's per-injection state budget.
func (spec Spec) effectiveBudget() int {
	if spec.StateBudget > 0 {
		return spec.StateBudget
	}
	return DefaultStateBudget
}

// NewSummaryContext builds (or loads from cache, which may be nil) the
// summary set of prog under dets and returns a context ready to classify
// injections.
func NewSummaryContext(prog *isa.Program, dets *detector.Table, cache *summary.Cache) *SummaryContext {
	return &SummaryContext{
		set:   summary.Build(prog, dets, cache),
		sites: newSiteMemo(),
	}
}

// Set exposes the underlying summary set (for diagnostics and tests).
func (s *SummaryContext) Set() *summary.Set { return s.set }

// BuildStats reports the cache behavior of the context's summary build.
func (s *SummaryContext) BuildStats() summary.BuildStats { return s.set.Stats }

// Benign reports whether the composed summaries prove the injection cannot
// change any observable behavior: a transient register error whose taint
// reaches no output, detector, or control decision on any continuation.
func (s *SummaryContext) Benign(inj faults.Injection) bool {
	if s == nil || inj.Class != faults.ClassRegister || inj.Permanent || inj.Loc.IsMem {
		return false
	}
	e, ok := s.set.EffectOf(inj.PC, inj.Loc.Reg)
	return ok && e.Benign()
}

// EnsureSummaries resolves the spec's summary configuration: nil when
// summaries are off, the shared context when one is installed, or a freshly
// built one (installed on the spec) when UseSummaries is set. Drivers that
// fan spec copies across pools (internal/cluster, internal/campaign,
// internal/dist workers) call this once up front so every copy shares the
// summary set and the representative memo; a lone RunInjectionCtx call on a
// bare spec gets a private context that classifies correctly but cannot
// share representatives.
func (spec *Spec) EnsureSummaries() *SummaryContext {
	if !spec.UseSummaries || spec.Program == nil {
		return nil
	}
	if spec.Summaries == nil {
		spec.Summaries = NewSummaryContext(spec.Program, spec.Detectors, spec.SummaryCache)
	}
	return spec.Summaries
}

// checkSummarizedReuse is the SYMPLFIED_CHECK_SUMMARIES assertion: explore
// the injection for real and panic on any divergence from the reused
// report. It runs outside RunInjectionCtx's recover boundary on purpose: a
// failed proof obligation must abort the process, not become one more
// isolated injection panic in the report.
func checkSummarizedReuse(ctx context.Context, spec Spec, inj faults.Injection, reused InjectionReport) {
	explored, err := runInjectionReal(ctx, spec, inj, false)
	if err != nil {
		panic(fmt.Sprintf("summary cross-check: %s: exploration failed: %v", inj, err))
	}
	if len(explored.Findings) > 0 {
		panic(fmt.Sprintf("summary cross-check: %s was classified benign but exploring it found %d finding(s): %s",
			inj, len(explored.Findings), explored.Findings[0].Describe()))
	}
	explored.Summarized = reused.Summarized // the marker is the one legitimate difference
	if !reflect.DeepEqual(normalizeForCheck(explored), normalizeForCheck(reused)) {
		panic(fmt.Sprintf("summary cross-check: %s: reused report diverges from exploration:\nreused:   %+v\nexplored: %+v",
			inj, reused, explored))
	}
}

// normalizeForCheck strips the fields DeepEqual cannot compare meaningfully
// across two explorations (live state pointers never travel in findings
// here — findings force a real exploration — but Outcomes maps need nil/
// empty normalization).
func normalizeForCheck(ir InjectionReport) InjectionReport {
	if len(ir.Outcomes) == 0 {
		ir.Outcomes = nil
	}
	if len(ir.DetectorHits) == 0 {
		ir.DetectorHits = nil
	}
	return ir
}
