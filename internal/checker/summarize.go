package checker

import (
	"context"
	"fmt"
	"os"
	"reflect"

	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/obs"
	"symplfied/internal/summary"
)

// liveSummarized counts explorations elided by a compositional summary
// proof; like the pruning counter, it measures work that did not happen —
// report contents stay identical to the unsummarized run's.
var liveSummarized = obs.Default().Counter(obs.MSummarizedInjections)

// CheckSummariesEnv names the environment variable that turns every reused
// summarized report into an assertion: the injection is explored anyway and
// the run panics if the exploration differs from the reused report. The
// summary proof composes per-function taint verdicts across call sites
// under the calling-convention assumption stated on summary.Partition; this
// mode discharges that proof obligation dynamically, following the
// SYMPLFIED_CHECK_PRUNING pattern.
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
// report for the other benign registers at the same site, exactly like
// liveness pruning, but also for taint that dies later (or in a
// callee/caller) rather than immediately. It is not a superset of liveness
// pruning: some dead-register sites are not summary-benign
// (TestPruneSummaryGap pins the per-program counts).
type SummaryContext struct {
	set   *summary.Set
	sites *siteMemo
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
// built one (installed on the spec) when UseSummaries is set. When pruning
// is also active, the two contexts share one representative memo — both
// classifications assert the exploration is the site's fault-free
// continuation, so a representative explored under either proof serves
// both. Drivers that fan spec copies across pools (internal/cluster,
// internal/campaign, internal/dist workers) call this once up front.
func (spec *Spec) EnsureSummaries() *SummaryContext {
	if !spec.UseSummaries || spec.Program == nil {
		return nil
	}
	if spec.Summaries == nil {
		spec.Summaries = NewSummaryContext(spec.Program, spec.Detectors, spec.SummaryCache)
		if prune := spec.EnsurePrune(); prune != nil {
			spec.Summaries.sites = prune.sites
		}
	}
	return spec.Summaries
}

// checkSummarizedReuse is the SYMPLFIED_CHECK_SUMMARIES assertion: explore
// the injection for real and panic on any divergence from the reused
// report. Like checkPrunedReuse, it runs outside the recover boundary on
// purpose — a failed proof obligation must abort the process.
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
