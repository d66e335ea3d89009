package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"symplfied/internal/checker"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// wideProgram builds a straight-line program with n addi instructions
// feeding a final print, so a register-class injection before any of the n
// PCs propagates err to the output. It yields a campaign of n injections
// whose explorations are small and deterministic.
func wideProgram(t *testing.T, n int) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("wide")
	b.Li(1, 0)
	for i := 0; i < n; i++ {
		b.Addi(1, 1, 1)
	}
	b.Print(1)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// wideSpec returns a spec sweeping err-in-r1 before each addi of a wide
// program: n injections, every one a finding (err reaches the output).
func wideSpec(t *testing.T, n int) checker.Spec {
	prog := wideProgram(t, n)
	injs := make([]faults.Injection, 0, n)
	for pc := 1; pc <= n; pc++ {
		injs = append(injs, faults.Injection{
			Class: faults.ClassRegister,
			PC:    pc,
			Loc:   isa.RegLoc(1),
		})
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 10_000
	return checker.Spec{
		Program:       prog,
		Injections:    injs,
		Exec:          exec,
		Predicate:     checker.OutputContainsErr(),
		DiscardStates: true, // journaled findings carry no state; keep runs comparable
	}
}

// TestCheckpointResumeRoundTrip is the acceptance scenario: a campaign over
// 60 injections is killed partway via context cancellation, then resumed
// from its checkpoint file; the final merged report must be identical to an
// uninterrupted run, and no journaled injection may be explored twice.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	const n = 60
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")

	// Reference: uninterrupted run, no checkpointing.
	want, wantStats, err := Run(context.Background(), wideSpec(t, n), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.Executed != n || want.Interrupted {
		t.Fatalf("reference run: executed %d, interrupted %v", wantStats.Executed, want.Interrupted)
	}
	if len(want.Findings) != n {
		t.Fatalf("reference run found %d findings, want %d", len(want.Findings), n)
	}

	// Run 1: cancel the campaign once 20 injections have settled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep1, stats1, err := Run(ctx, wideSpec(t, n), Config{
		Checkpoint: journal,
		OnInjection: func(done, total int) {
			if done >= 20 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Interrupted || !stats1.Interrupted {
		t.Fatal("killed campaign must be marked interrupted")
	}
	if stats1.NotAttempted == 0 {
		t.Fatal("killed campaign should have unattempted injections left")
	}
	if got := rep1.Verdict(); got != checker.VerdictInconclusive && got != checker.VerdictRefuted {
		t.Fatalf("partial report verdict = %s", got)
	}

	// The journal must already hold the settled injections.
	entries, err := LoadJournal(journal, KindSymbolic, Fingerprint(wideSpec(t, n)))
	if err != nil {
		t.Fatal(err)
	}
	journaled := len(entries)
	if journaled == 0 || journaled >= n {
		t.Fatalf("journal holds %d entries after the kill, want a strict partial of %d", journaled, n)
	}

	// Run 2: resume. Journaled injections are skipped, the rest executed.
	rep2, stats2, err := Run(context.Background(), wideSpec(t, n), Config{
		Checkpoint: journal,
		Resume:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed != journaled {
		t.Errorf("resumed %d injections, want %d (the journal's entries)", stats2.Resumed, journaled)
	}
	if stats2.Executed != n-journaled {
		t.Errorf("resume executed %d injections, want %d: a journaled injection was explored twice", stats2.Executed, n-journaled)
	}
	if rep2.Interrupted || stats2.Interrupted {
		t.Error("resumed campaign finished but is marked interrupted")
	}

	// The merged report must match the uninterrupted run exactly.
	if !reflect.DeepEqual(rep2.PerInjection, want.PerInjection) {
		t.Error("resumed per-injection reports differ from the uninterrupted run")
	}
	if rep2.TotalStates != want.TotalStates {
		t.Errorf("resumed TotalStates = %d, uninterrupted = %d", rep2.TotalStates, want.TotalStates)
	}
	if !reflect.DeepEqual(rep2.Outcomes, want.Outcomes) {
		t.Errorf("resumed outcomes %v, uninterrupted %v", rep2.Outcomes, want.Outcomes)
	}
	if len(rep2.Findings) != len(want.Findings) {
		t.Errorf("resumed findings %d, uninterrupted %d", len(rep2.Findings), len(want.Findings))
	}
	if rep2.Verdict() != want.Verdict() {
		t.Errorf("resumed verdict %s, uninterrupted %s", rep2.Verdict(), want.Verdict())
	}
}

// TestResumeCompletedCampaignExecutesNothing proves a finished journal fully
// short-circuits the sweep.
func TestResumeCompletedCampaignExecutesNothing(t *testing.T) {
	const n = 50
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	spec := wideSpec(t, n)

	if _, _, err := Run(context.Background(), spec, Config{Checkpoint: journal}); err != nil {
		t.Fatal(err)
	}
	rep, stats, err := Run(context.Background(), wideSpec(t, n), Config{Checkpoint: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.Resumed != n {
		t.Errorf("executed %d / resumed %d, want 0 / %d", stats.Executed, stats.Resumed, n)
	}
	if len(rep.PerInjection) != n {
		t.Errorf("merged report has %d injection reports, want %d", len(rep.PerInjection), n)
	}
}

// TestFingerprintMismatchRejected proves a journal cannot be resumed against
// a different campaign spec.
func TestFingerprintMismatchRejected(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, _, err := Run(context.Background(), wideSpec(t, 50), Config{Checkpoint: journal}); err != nil {
		t.Fatal(err)
	}
	// Different program size => different fingerprint.
	_, _, err := Run(context.Background(), wideSpec(t, 51), Config{Checkpoint: journal, Resume: true})
	if err == nil {
		t.Fatal("resuming with a different spec must fail the fingerprint check")
	}
}

// TestPanickingInjectionIsIsolated proves a panic inside one injection's
// exploration (here: a panicking user predicate) is recorded on that
// injection's report while the rest of the campaign completes, and the
// verdict refuses to claim proof.
func TestPanickingInjectionIsIsolated(t *testing.T) {
	spec := wideSpec(t, 10)
	base := spec.Predicate.Match
	var calls int32
	spec.Predicate.Name = "panics on third terminal classification"
	spec.Predicate.Match = func(s *symexec.State) bool {
		if atomic.AddInt32(&calls, 1) == 3 {
			panic("synthetic predicate failure")
		}
		return base(s)
	}

	rep, stats, err := Run(context.Background(), spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Panicked != 1 || rep.Panics != 1 {
		t.Fatalf("panicked = %d (report %d), want 1", stats.Panicked, rep.Panics)
	}
	if len(rep.PerInjection) != 10 {
		t.Fatalf("campaign aborted: %d of 10 injections reported", len(rep.PerInjection))
	}
	var found bool
	for _, ir := range rep.PerInjection {
		if ir.Panicked {
			found = true
			if ir.PanicValue != "synthetic predicate failure" {
				t.Errorf("panic value = %q", ir.PanicValue)
			}
		}
	}
	if !found {
		t.Error("no per-injection report marked Panicked")
	}
	if rep.Verdict() == checker.VerdictProven {
		t.Error("a campaign with an isolated panic must not claim proof")
	}
}

// TestTransientPanicRecoveredByRetry proves the graceful-degradation retry:
// a predicate that panics exactly once makes the first attempt fail and the
// degraded retry succeed, leaving a clean report.
func TestTransientPanicRecoveredByRetry(t *testing.T) {
	spec := wideSpec(t, 5)
	base := spec.Predicate.Match
	var bombs int32 = 1
	spec.Predicate.Match = func(s *symexec.State) bool {
		if atomic.AddInt32(&bombs, -1) == 0 {
			panic("transient fault")
		}
		return base(s)
	}

	rep, stats, err := Run(context.Background(), spec, Config{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retried == 0 {
		t.Error("no retry was attempted")
	}
	if stats.Panicked != 0 || rep.Panics != 0 {
		t.Errorf("panic survived retries: stats %d, report %d", stats.Panicked, rep.Panics)
	}
	if len(rep.PerInjection) != 5 {
		t.Errorf("%d of 5 injections reported", len(rep.PerInjection))
	}
}

// TestParallelWorkersMergeInSpecOrder proves the merged report is ordered by
// the spec regardless of worker interleaving, and is identical to the
// one-worker run. Run with -race this also exercises the journal and stats
// locking.
func TestParallelWorkersMergeInSpecOrder(t *testing.T) {
	const n = 60
	one := wideSpec(t, n)
	one.Parallelism = 1
	want, _, err := Run(context.Background(), one, Config{})
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	spec := wideSpec(t, n)
	spec.Parallelism = 8
	got, stats, err := Run(context.Background(), spec, Config{Checkpoint: journal})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != n {
		t.Fatalf("executed %d, want %d", stats.Executed, n)
	}
	if !reflect.DeepEqual(got.PerInjection, want.PerInjection) {
		t.Error("parallel merged report differs from sequential run")
	}
}

// TestTornJournalLineIsTolerated proves a crash mid-append (a torn final
// line) does not poison the resume.
func TestTornJournalLineIsTolerated(t *testing.T) {
	const n = 50
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	spec := wideSpec(t, n)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err := Run(ctx, spec, Config{
		Checkpoint: journal,
		OnInjection: func(done, total int) {
			if done >= 10 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the kill landing mid-write.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, stats, err := Run(context.Background(), wideSpec(t, n), Config{Checkpoint: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed == 0 {
		t.Error("torn line discarded the whole journal")
	}
	if stats.Resumed+stats.Executed != n || rep.Interrupted {
		t.Errorf("resumed %d + executed %d != %d (interrupted %v)", stats.Resumed, stats.Executed, n, rep.Interrupted)
	}

	// The torn fragment must have been truncated, not appended onto: the
	// journal stays loadable and now covers the whole campaign.
	entries, err := LoadJournal(journal, KindSymbolic, Fingerprint(wideSpec(t, n)))
	if err != nil {
		t.Fatalf("journal unreadable after resume over a torn tail: %v", err)
	}
	if len(entries) != n {
		t.Errorf("journal holds %d entries after full resume, want %d", len(entries), n)
	}
}
