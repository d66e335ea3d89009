package crossval

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/simplescalar"
	"symplfied/internal/symexec"
)

// branchUnit reads one value and either prints it or — at one magic value no
// seeded trial draws — crashes on an undefined load. The symbolic sweep must
// enumerate both arms; the crash arm is reachable only symbolically, so the
// campaign also exercises the expected ConcreteMiss direction.
func branchUnit(t *testing.T) *isa.Program {
	t.Helper()
	u := asm.MustParse("branch", `
	read $1
	beqi $1 12345 boom
	print $1
	halt
boom:
	ld $2 7($0)
	halt
`)
	return u.Program
}

func branchSpec(t *testing.T) Spec {
	return Spec{
		Program:  branchUnit(t),
		Input:    []int64{7},
		Watchdog: 1000,
		Seed:     2008,
	}
}

func TestConcreteOutcomeMapping(t *testing.T) {
	cases := []struct {
		res  machine.Result
		want symexec.Outcome
	}{
		{machine.Result{Status: machine.StatusHalted}, symexec.OutcomeNormal},
		{machine.Result{Status: machine.StatusExcepted, Exception: &isa.Exception{Kind: isa.ExcTimeout}}, symexec.OutcomeHang},
		{machine.Result{Status: machine.StatusExcepted, Exception: &isa.Exception{Kind: isa.ExcDetected}}, symexec.OutcomeDetected},
		{machine.Result{Status: machine.StatusExcepted, Exception: &isa.Exception{Kind: isa.ExcIllegalAddr}}, symexec.OutcomeCrash},
		{machine.Result{Status: machine.StatusExcepted, Exception: &isa.Exception{Kind: isa.ExcDivZero}}, symexec.OutcomeCrash},
		{machine.Result{Status: machine.StatusRunning}, symexec.OutcomeRunning},
	}
	for _, c := range cases {
		if got := ConcreteOutcome(c.res); got != c.want {
			t.Errorf("ConcreteOutcome(%v) = %v, want %v", c.res, got, c.want)
		}
	}
}

func TestOutputCovers(t *testing.T) {
	val := func(v int64) machine.OutItem { return machine.OutItem{Val: isa.Int(v)} }
	str := func(s string) machine.OutItem { return machine.OutItem{IsStr: true, Str: s} }
	errItem := machine.OutItem{Val: isa.Err()}
	cases := []struct {
		sym, conc []machine.OutItem
		want      bool
	}{
		{nil, nil, true},
		{[]machine.OutItem{val(3)}, []machine.OutItem{val(3)}, true},
		{[]machine.OutItem{val(3)}, []machine.OutItem{val(4)}, false},
		{[]machine.OutItem{errItem}, []machine.OutItem{val(-17)}, true},
		{[]machine.OutItem{str("a")}, []machine.OutItem{str("a")}, true},
		{[]machine.OutItem{str("a")}, []machine.OutItem{str("b")}, false},
		{[]machine.OutItem{str("a")}, []machine.OutItem{val(1)}, false},
		{[]machine.OutItem{val(1), val(2)}, []machine.OutItem{val(1)}, false},
	}
	for i, c := range cases {
		if got := outputCovers(c.sym, c.conc); got != c.want {
			t.Errorf("case %d: outputCovers = %v, want %v", i, got, c.want)
		}
	}
}

// TestBranchUnitSound: the exhaustive sweep of a tiny branching unit agrees
// everywhere — the symbolic terminal set covers every concrete trial.
func TestBranchUnitSound(t *testing.T) {
	rep, err := Run(branchSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound() {
		t.Fatalf("unsound: %s\n%+v", rep.Summary(), rep.Mismatches)
	}
	if rep.ByClass[SymbolicMiss.String()] != 0 || rep.ByClass[ClassDrift.String()] != 0 {
		t.Errorf("unexpected alarms: %v", rep.ByClass)
	}
	if rep.Trials == 0 || rep.Agreements != rep.Trials {
		t.Errorf("trials %d, agreements %d — want full agreement", rep.Trials, rep.Agreements)
	}
	if rep.InconclusivePoints != 0 {
		t.Errorf("%d inconclusive points on a tiny unit", rep.InconclusivePoints)
	}
	// The crash arm is hit symbolically; no concrete trial draws 12345, so
	// the campaign must record the expected ConcreteMiss direction.
	if rep.ByClass[ConcreteMiss.String()] == 0 {
		t.Error("no ConcreteMiss recorded — symbolic should be strictly stronger here")
	}
}

// reportBytes marshals a report with the run-history fields cleared, leaving
// exactly the deterministic payload.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	cp := *rep
	cp.Resumed = 0
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReportByteIdentityAcrossPartitions: sequential, parallel and manually
// partitioned-and-merged sweeps must produce byte-identical reports — the
// property the distributed fleet relies on.
func TestReportByteIdentityAcrossPartitions(t *testing.T) {
	spec := branchSpec(t)
	ctx := context.Background()

	seq, err := RunCtx(ctx, spec, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCtx(ctx, spec, Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Fleet-style: deal points round-robin into three tasks, sweep each
	// separately, merge the concatenated results in arrival order.
	pts := spec.Points()
	var pooled []PointReport
	for task := 0; task < 3; task++ {
		var mine []simplescalar.Point
		for i := task; i < len(pts); i += 3 {
			mine = append(mine, pts[i])
		}
		prs, interrupted := RunPointsCtx(ctx, spec, mine, 2)
		if interrupted {
			t.Fatal("task interrupted")
		}
		pooled = append(pooled, prs...)
	}
	merged := Merge(spec, pooled)

	a, b, c := reportBytes(t, seq), reportBytes(t, par), reportBytes(t, merged)
	if !bytes.Equal(a, b) {
		t.Errorf("sequential and parallel reports differ:\n%s\n---\n%s", a, b)
	}
	if !bytes.Equal(a, c) {
		t.Errorf("sequential and fleet-merged reports differ:\n%s\n---\n%s", a, c)
	}
}

// TestCheckpointResume: a resumed campaign replays journaled points instead
// of re-executing and reaches the identical report.
func TestCheckpointResume(t *testing.T) {
	spec := branchSpec(t)
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "crossval.journal")

	first, err := RunCtx(ctx, spec, Config{Parallelism: 2, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCtx(ctx, spec, Config{Parallelism: 2, Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != second.Points || second.Points != first.Points {
		t.Errorf("resumed %d of %d points (first run had %d)", second.Resumed, second.Points, first.Points)
	}
	if !bytes.Equal(reportBytes(t, first), reportBytes(t, second)) {
		t.Error("resumed report differs from original")
	}
}

// TestCancelledPointsDispatchNothing: under an already-cancelled context a
// four-worker point sweep returns no point report and says it was
// interrupted, on every one of 1,000 repetitions.
func TestCancelledPointsDispatchNothing(t *testing.T) {
	spec := branchSpec(t)
	pts := spec.Points()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for rep := 0; rep < 1000; rep++ {
		prs, interrupted := RunPointsCtx(ctx, spec, pts, 4)
		if len(prs) != 0 || !interrupted {
			t.Fatalf("repetition %d: cancelled sweep returned %d point reports (interrupted %v)", rep, len(prs), interrupted)
		}
	}
}

// TestBrokenPruningCaughtAsSymbolicMiss: simulating an unsound pruning via
// the test-only hook must surface as a conclusive SymbolicMiss carrying the
// full repro (seed, point, value, trace tail, symbolic finding).
func TestBrokenPruningCaughtAsSymbolicMiss(t *testing.T) {
	spec := branchSpec(t)
	restore := SetDropTerminalForTest(func(pt simplescalar.Point, st *symexec.State) bool {
		// Drop every normally-halting terminal — exactly the states that
		// cover the concrete value-printing trials.
		return st.Outcome() == symexec.OutcomeNormal
	})
	defer restore()

	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound() {
		t.Fatalf("broken pruning not caught: %s", rep.Summary())
	}
	var miss *Mismatch
	for i := range rep.Mismatches {
		if rep.Mismatches[i].Class == SymbolicMiss && !rep.Mismatches[i].Inconclusive {
			miss = &rep.Mismatches[i]
			break
		}
	}
	if miss == nil {
		t.Fatal("no conclusive SymbolicMiss in report")
	}
	if miss.Seed != spec.Seed {
		t.Errorf("repro seed %d, want %d", miss.Seed, spec.Seed)
	}
	if miss.Concrete == nil || miss.Concrete.Outcome != symexec.OutcomeNormal {
		t.Fatalf("missing concrete evidence: %+v", miss)
	}
	if len(miss.Concrete.TraceTail) == 0 {
		t.Error("repro has no concrete trace tail")
	}
	if miss.Symbolic.Injection == "" || miss.Repro == "" {
		t.Errorf("repro incomplete: injection %q, repro %q", miss.Symbolic.Injection, miss.Repro)
	}
	// The repro must round-trip through JSON (it travels in reports).
	b, err := json.Marshal(miss)
	if err != nil {
		t.Fatal(err)
	}
	var back Mismatch
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Class != SymbolicMiss {
		t.Errorf("class did not round-trip: %v", back.Class)
	}
}

// TestNotActivatedPoint: a site the fault-free run never reaches must agree
// trivially in both engines.
func TestNotActivatedPoint(t *testing.T) {
	u := asm.MustParse("dead", `
	jmp end
	print $2
end:
	halt
`)
	spec := Spec{Program: u.Program, Watchdog: 100, Seed: 1}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound() {
		t.Fatalf("unsound: %+v", rep.Mismatches)
	}
	if rep.NotActivated == 0 {
		t.Error("dead print site not reported as never activated")
	}
	if rep.ByClass[ClassDrift.String()] != 0 {
		t.Errorf("activation drift on dead code: %v", rep.ByClass)
	}
}
