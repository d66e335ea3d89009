package dist

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"symplfied/internal/checker"
	"symplfied/internal/symexec"
)

// testDoc is a small real campaign: the factorial benchmark's register-error
// study, decomposed into 4 tasks.
func testDoc() SpecDoc {
	return SpecDoc{
		Name:               "factorial-register",
		App:                "factorial",
		Input:              []int64{5},
		Class:              "register",
		Goal:               "incorrect-output",
		Watchdog:           400,
		Tasks:              4,
		MaxFindingsPerTask: 10,
	}
}

// fakeClock is a manually-advanced clock for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestCoordinator registers testDoc() as the only campaign of a
// MemStore-backed registry with the given lease and clock.
func newTestCoordinator(t *testing.T, clock *fakeClock, lease time.Duration) *Coordinator {
	t.Helper()
	cfg := RegistryConfig{Lease: lease}
	if clock != nil {
		cfg.Now = clock.Now
	}
	c, err := newTestRegistry(t, cfg).Create(testDoc(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newDiskRegistry opens a registry over a DiskStore rooted at dir.
func newDiskRegistry(t *testing.T, dir string) *Registry {
	t.Helper()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRegistry(RegistryConfig{Store: store})
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	return r
}

// syntheticResult fabricates a minimal but well-formed task result whose
// StatesExplored marker identifies which poster it came from.
func syntheticResult(marker int) TaskResult {
	return TaskResult{Reports: []checker.InjectionReport{{
		Activated:      true,
		StatesExplored: marker,
		Outcomes:       map[symexec.Outcome]int{symexec.OutcomeNormal: 1},
	}}}
}

// TestLeaseLifecycle is the lease state machine, table-driven over a fake
// clock: claims, heartbeats, expiry-driven reassignment, and de-duplication
// of completions from re-claimed tasks.
func TestLeaseLifecycle(t *testing.T) {
	const lease = 30 * time.Second
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *Coordinator, clock *fakeClock)
	}{
		{"silent worker loses its task and the duplicate completion is dropped", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			a := c.Claim("a")
			if a.Task == nil || a.Task.ID != 0 {
				t.Fatalf("first claim: %+v", a)
			}
			// Worker a goes silent: no heartbeat for a full lease.
			clock.Advance(lease + time.Second)
			b := c.Claim("b")
			if b.Task == nil || b.Task.ID != 0 {
				t.Fatalf("expired task not re-served first: %+v", b.Task)
			}
			if got := c.Status().Counters.TasksReassigned; got != 1 {
				t.Errorf("reassigned counter %d, want 1", got)
			}
			// b finishes; the zombie a posts afterwards.
			if resp, err := c.Complete("b", 0, syntheticResult(200)); err != nil || !resp.Accepted {
				t.Fatalf("live completion rejected: %+v, %v", resp, err)
			}
			resp, err := c.Complete("a", 0, syntheticResult(100))
			if err != nil || !resp.Duplicate || resp.Accepted {
				t.Fatalf("zombie completion not dropped as duplicate: %+v, %v", resp, err)
			}
			if got := c.Report().Tasks[0].StatesExplored; got != 200 {
				t.Errorf("pooled result came from the zombie (states %d, want 200)", got)
			}
			if got := c.Status().Counters.DuplicateCompletions; got != 1 {
				t.Errorf("duplicate counter %d, want 1", got)
			}
		}},
		{"zombie that posts before the reclaimer wins (first completion settles)", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			c.Claim("a")
			clock.Advance(lease + time.Second)
			c.Claim("b") // task 0 re-leased to b
			// a's full result arrives first: it is the task's real sweep, so
			// it settles the task; b's later post is the duplicate.
			if resp, _ := c.Complete("a", 0, syntheticResult(100)); !resp.Accepted {
				t.Fatal("first completion not accepted")
			}
			if resp, _ := c.Complete("b", 0, syntheticResult(200)); !resp.Duplicate {
				t.Fatal("second completion not deduplicated")
			}
			if got := c.Report().Tasks[0].StatesExplored; got != 100 {
				t.Errorf("pooled states %d, want the first poster's 100", got)
			}
		}},
		{"heartbeats keep the lease alive past its nominal duration", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			c.Claim("a")
			for i := 0; i < 4; i++ {
				clock.Advance(lease / 2)
				if err := c.Heartbeat("a", 0); err != nil {
					t.Fatalf("heartbeat %d under a live lease: %v", i, err)
				}
			}
			// Two lease durations have elapsed, but the renewals held task 0.
			if b := c.Claim("b"); b.Task == nil || b.Task.ID == 0 {
				t.Fatalf("heartbeated task was re-served: %+v", b.Task)
			}
		}},
		{"heartbeat after expiry reports the lost lease", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			c.Claim("a")
			clock.Advance(lease + time.Second)
			if err := c.Heartbeat("a", 0); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("heartbeat on an expired lease: %v, want ErrLeaseLost", err)
			}
		}},
		{"heartbeat for a task the worker never held reports the lost lease", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			c.Claim("a")
			if err := c.Heartbeat("b", 0); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("foreign heartbeat: %v, want ErrLeaseLost", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			tc.run(t, newTestCoordinator(t, clock, lease), clock)
		})
	}
}

// TestLeaseLostDecisiveness: only a 409 from the coordinator proves the
// lease is gone. A 5xx from a reverse proxy in front of the coordinator, or
// a transport failure, says nothing about the lease and must be retried
// instead of aborting a long sweep and throwing its work away.
func TestLeaseLostDecisiveness(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"409 conflict", &httpError{status: http.StatusConflict, msg: "409 Conflict: dist: lease lost"}, true},
		{"wrapped 409", fmt.Errorf("heartbeat: %w", &httpError{status: http.StatusConflict}), true},
		{"proxy 502", &httpError{status: http.StatusBadGateway, msg: "502 Bad Gateway"}, false},
		{"overload 503", &httpError{status: http.StatusServiceUnavailable, msg: "503 Service Unavailable"}, false},
		{"coordinator 400", &httpError{status: http.StatusBadRequest, msg: "400 Bad Request"}, false},
		{"transport failure", errors.New("dial tcp: connection refused"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := leaseLost(tc.err); got != tc.want {
				t.Errorf("leaseLost(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// TestJournalErrorSurfaced: a completion that pools but fails to reach the
// store must still be Accepted, but the failure must be visible server-side —
// the operator relying on the store has to learn journaling is broken before
// the restart that depends on it.
func TestJournalErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	r := newDiskRegistry(t, dir)
	defer r.Close()
	c, err := r.Create(testDoc(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp := c.Claim("w"); resp.Task == nil {
		t.Fatal("claim failed")
	}
	// The campaign's result log goes bad mid-campaign: a directory now sits
	// where the journal file would be opened on the first append.
	if err := os.Mkdir(filepath.Join(dir, c.ID(), "tasks.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Complete("w", 0, syntheticResult(1))
	if err == nil {
		t.Fatal("journal failure not reported")
	}
	if !resp.Accepted {
		t.Error("result no longer pooled on a journal failure")
	}
	if got := c.Status().Counters.JournalErrors; got != 1 {
		t.Errorf("JournalErrors counter %d, want 1", got)
	}
	if got := c.Report().Tasks[0].StatesExplored; got != 1 {
		t.Errorf("pooled states %d, want 1 (result must survive the journal failure)", got)
	}
}

// TestClaimDrainsToDone walks a single worker through the whole queue.
func TestClaimDrainsToDone(t *testing.T) {
	c := newTestCoordinator(t, nil, 0)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		resp := c.Claim("w")
		if resp.Task == nil {
			t.Fatalf("claim %d served nothing", i)
		}
		if seen[resp.Task.ID] {
			t.Fatalf("task %d served twice under a live lease", resp.Task.ID)
		}
		seen[resp.Task.ID] = true
		cr, err := c.Complete("w", resp.Task.ID, syntheticResult(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if wantDone := i == 3; cr.Done != wantDone {
			t.Errorf("completion %d: Done = %v, want %v", i, cr.Done, wantDone)
		}
	}
	final := c.Claim("w")
	if !final.Done {
		t.Errorf("claim after all tasks settled: %+v, want Done", final)
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done channel not closed after the last completion")
	}
	st := c.Status()
	if st.Done != 4 || st.Queued != 0 || st.Leased != 0 {
		t.Errorf("status %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].Completed != 4 || !st.Workers[0].Live {
		t.Errorf("worker status %+v", st.Workers)
	}
}

// TestCoordinatorResume: a registry restarted over the same DiskStore
// re-serves only a campaign's unfinished tasks; journaled completions are not
// re-run.
func TestCoordinatorResume(t *testing.T) {
	dir := t.TempDir()
	r1 := newDiskRegistry(t, dir)
	c1, err := r1.Create(testDoc(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2} {
		if resp := c1.Claim("w"); resp.Task == nil {
			t.Fatal("claim failed")
		}
		if _, err := c1.Complete("w", id, syntheticResult(10*(id+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := newDiskRegistry(t, dir)
	defer r2.Close()
	c2, ok := r2.Get(c1.ID())
	if !ok {
		t.Fatalf("campaign %s not resumed", c1.ID())
	}
	st := c2.Status()
	if st.Done != 2 || st.Queued != 2 {
		t.Fatalf("resumed status %+v, want 2 done / 2 queued", st)
	}
	served := map[int]bool{}
	for i := 0; i < 2; i++ {
		resp := c2.Claim("w2")
		if resp.Task == nil {
			t.Fatal("resumed coordinator served nothing")
		}
		if resp.Task.ID == 0 || resp.Task.ID == 2 {
			t.Fatalf("journaled task %d re-served", resp.Task.ID)
		}
		served[resp.Task.ID] = true
	}
	if !served[1] || !served[3] {
		t.Fatalf("unfinished tasks not re-served: %v", served)
	}
	// Journaled results survived intact.
	if got := c2.Report().Tasks[0].StatesExplored; got != 10 {
		t.Errorf("restored task 0 states %d, want 10", got)
	}
}

// TestResumeRejectsForeignJournal: a result journal written by a different
// campaign spec (or decomposition width) must be refused, not merged. Each
// case moves a settled testDoc() journal under another campaign's record and
// restarts the registry.
func TestResumeRejectsForeignJournal(t *testing.T) {
	other := testDoc()
	other.Input = []int64{6} // different search space
	rewidth := testDoc()
	rewidth.Tasks = 2 // different task boundaries
	for _, tc := range []struct {
		name string
		doc  SpecDoc
	}{
		{"foreign-spec journal", other},
		{"journal with a different decomposition width", rewidth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r1 := newDiskRegistry(t, dir)
			src, err := r1.Create(testDoc(), "", 0)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := r1.Create(tc.doc, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			c := src.Claim("w")
			if c.Task == nil {
				t.Fatal("claim failed")
			}
			if _, err := src.Complete("w", c.Task.ID, syntheticResult(1)); err != nil {
				t.Fatal(err)
			}
			if err := r1.Close(); err != nil {
				t.Fatal(err)
			}
			journal := func(id string) string { return filepath.Join(dir, id, "tasks.jsonl") }
			if err := os.Rename(journal(src.ID()), journal(dst.ID())); err != nil {
				t.Fatal(err)
			}

			store, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if r2, err := NewRegistry(RegistryConfig{Store: store}); err == nil {
				r2.Close()
				t.Errorf("%s accepted on resume", tc.name)
			}
		})
	}
}

// TestSpecDocValidation covers the document's failure modes.
func TestSpecDocValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*SpecDoc)
	}{
		{"no program", func(d *SpecDoc) { d.App = "" }},
		{"both app and source", func(d *SpecDoc) { d.Source = "halt" }},
		{"unknown app", func(d *SpecDoc) { d.App = "nonesuch" }},
		{"unknown class", func(d *SpecDoc) { d.Class = "cosmic-ray" }},
		{"unknown goal", func(d *SpecDoc) { d.Goal = "world-peace" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := testDoc()
			tc.mut(&doc)
			if _, err := doc.Build(); err == nil {
				t.Error("bad spec document accepted")
			}
		})
	}
}
