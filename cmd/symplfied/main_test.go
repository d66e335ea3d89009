package main

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

func TestAnalyzeCleanApp(t *testing.T) {
	for _, args := range [][]string{
		{"-analyze", "-app", "tcas"},
		{"-analyze", "-json", "-app", "replace"},
	} {
		if err := run(context.Background(), args); err != nil {
			t.Errorf("run(%v): %v (benchmark apps lint clean)", args, err)
		}
	}
}

func TestAnalyzeFlagsUnreachableDetector(t *testing.T) {
	// The acceptance example: a deliberately unreachable detector is an
	// error-severity finding, so -analyze must exit nonzero.
	err := run(context.Background(), []string{
		"-analyze", "-file", "../../examples/analyze/unreachable-detector.sym",
	})
	if err == nil {
		t.Fatal("-analyze accepted a program with an unreachable detector")
	}
	if !strings.Contains(err.Error(), "error-severity") {
		t.Errorf("unexpected -analyze failure: %v", err)
	}
}

func TestSummariesSearch(t *testing.T) {
	err := run(context.Background(), []string{
		"-app", "factorial", "-input", "5",
		"-class", "register", "-goal", "err-output",
		"-watchdog", "400", "-findings", "2", "-summaries",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSummariesStudy(t *testing.T) {
	err := run(context.Background(), []string{
		"-app", "factorial", "-input", "5",
		"-class", "register", "-goal", "incorrect-output",
		"-watchdog", "400", "-tasks", "4", "-budget", "20000", "-summaries",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSequentialSearch(t *testing.T) {
	err := run(context.Background(), []string{
		"-app", "factorial", "-input", "5",
		"-class", "register", "-goal", "err-output",
		"-watchdog", "400", "-findings", "2", "-traces", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecomposedStudy(t *testing.T) {
	err := run(context.Background(), []string{
		"-app", "factorial", "-input", "5",
		"-class", "register", "-goal", "incorrect-output",
		"-watchdog", "400", "-tasks", "4", "-budget", "20000",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDetectedGoal(t *testing.T) {
	err := run(context.Background(), []string{
		"-app", "factorial-detectors", "-input", "5",
		"-class", "register", "-goal", "detected", "-watchdog", "400",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNoAffineAblation(t *testing.T) {
	err := run(context.Background(), []string{
		"-app", "factorial", "-input", "5",
		"-class", "register", "-goal", "err-output",
		"-watchdog", "400", "-no-affine", "-findings", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGraphOutput(t *testing.T) {
	dot := t.TempDir() + "/g.dot"
	err := run(context.Background(), []string{
		"-app", "factorial", "-input", "3",
		"-class", "register", "-goal", "err-output",
		"-watchdog", "200", "-findings", "1",
		"-graph", dot, "-graph-nodes", "500",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph symplfied") {
		t.Errorf("graph file content %q", string(data[:60]))
	}
}

func TestCheckpointedSearchAndResume(t *testing.T) {
	journal := t.TempDir() + "/search.jsonl"
	args := []string{
		"-app", "factorial", "-input", "5",
		"-class", "register", "-goal", "err-output",
		"-watchdog", "400", "-findings", "2",
		"-checkpoint", journal,
	}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("checkpoint journal not written: %v", err)
	}
	// Resume against the completed journal: every injection is restored.
	if err := run(context.Background(), append(args, "-resume")); err != nil {
		t.Fatal(err)
	}
}

func TestResilienceFlags(t *testing.T) {
	err := run(context.Background(), []string{
		"-app", "factorial", "-input", "5",
		"-class", "register", "-goal", "err-output",
		"-watchdog", "400", "-findings", "1",
		"-timeout", "1m", "-per-injection-timeout", "10s", "-retries", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSearchErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "factorial", "-class", "quantum"},
		{"-app", "factorial", "-goal", "nonsense"},
		{"-app", "bogus"},
		{"-app", "factorial", "-input", "zz"},
		// Checkpointing runs the single-process campaign runner.
		{"-app", "factorial", "-checkpoint", "x.jsonl", "-tasks", "4"},
		// Resume without a journal path.
		{"-app", "factorial", "-resume"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestServeErrors(t *testing.T) {
	for _, args := range [][]string{
		// Spec document errors surface before the server starts.
		{"-serve", "127.0.0.1:0", "-app", "factorial", "-class", "quantum"},
		{"-serve", "127.0.0.1:0", "-app", "bogus"},
		// The service journals to -store, not to a checkpoint file.
		{"-serve", "127.0.0.1:0", "-app", "factorial", "-resume"},
		{"-serve", "127.0.0.1:0", "-app", "factorial", "-checkpoint", "x"},
		// Unusable listen address.
		{"-serve", "256.256.256.256:99999", "-app", "factorial"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestServeShutsDownOnSignal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-serve", "127.0.0.1:0",
			"-app", "factorial", "-input", "5",
			"-class", "register", "-goal", "incorrect-output",
			"-watchdog", "400", "-tasks", "4",
		})
	}()
	time.Sleep(200 * time.Millisecond) // let the listener come up
	cancel()                           // stands in for SIGINT via signal.NotifyContext
	select {
	case err := <-done:
		// No workers joined: the interrupted coordinator must still exit
		// cleanly with a partial (all-incomplete) merged report.
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not shut down on cancellation")
	}
}

func TestCancelledSearchReportsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Pre-cancelled context: the search must still return cleanly with an
	// interrupted (empty) report rather than an error.
	err := run(ctx, []string{
		"-app", "factorial", "-input", "5",
		"-class", "register", "-goal", "err-output", "-watchdog", "400",
	})
	if err != nil {
		t.Fatal(err)
	}
}
