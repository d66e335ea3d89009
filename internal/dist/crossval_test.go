package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"symplfied/internal/crossval"
)

// crossvalDoc is a small real cross-validation campaign: the factorial
// benchmark swept concretely and symbolically, decomposed into 3 tasks.
func crossvalDoc() SpecDoc {
	return SpecDoc{
		Name:            "factorial-crossval",
		App:             "factorial",
		Input:           []int64{5},
		Watchdog:        400,
		Tasks:           3,
		TaskStateBudget: 5_000,
		Crossval:        true,
		Seed:            2008,
		RandomPerReg:    2,
	}
}

// TestCrossvalFleetDeterminism is the crossval-as-distributed-workload
// acceptance check: the campaign service plus two loopback workers must pool a
// crossval report byte-identical (under encoding/json) to a single-process
// crossval.RunCtx over the same spec.
func TestCrossvalFleetDeterminism(t *testing.T) {
	doc := crossvalDoc()

	// Single-process reference: same document, same lowering.
	xspec, err := doc.BuildCrossval()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := crossval.RunCtx(context.Background(), xspec, crossval.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Sound() {
		t.Fatalf("reference crossval run unsound: %s", ref.Summary())
	}

	coord, srv := serveTestCampaign(t, doc, 0)
	if coord.Fingerprint() != crossval.Fingerprint(xspec) {
		t.Fatalf("coordinator fingerprint %s, crossval %s", coord.Fingerprint(), crossval.Fingerprint(xspec))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, id := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			_, errs[i] = RunWorker(ctx, WorkerConfig{
				Coordinator: srv.URL,
				ID:          id,
				Poll:        50 * time.Millisecond,
				Parallelism: 2,
			})
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("workers exited but the campaign is not done")
	}

	merged := coord.Report()
	if !merged.Complete {
		t.Fatal("merged report not complete")
	}
	if merged.Crossval == nil {
		t.Fatal("merged report has no crossval payload")
	}
	got, err := json.Marshal(merged.Crossval)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet crossval report differs from single-process:\n%s\n---\n%s", got, want)
	}
	if st := coord.Status(); st.Verdict != "proven resilient" {
		t.Errorf("verdict %q for a sound complete campaign", st.Verdict)
	}
}

// TestCrossvalSpecDocValidation: the two lowering paths reject the wrong
// campaign kind.
func TestCrossvalSpecDocValidation(t *testing.T) {
	if _, err := crossvalDoc().Build(); err == nil {
		t.Error("Build accepted a crossval document")
	}
	plain := testDoc()
	if _, err := plain.BuildCrossval(); err == nil {
		t.Error("BuildCrossval accepted a symbolic-search document")
	}
}
