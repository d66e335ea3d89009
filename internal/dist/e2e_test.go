package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"symplfied/internal/cluster"
)

// serveTestCampaign registers doc as the only campaign of a MemStore-backed
// registry and serves the registry over loopback HTTP.
func serveTestCampaign(t *testing.T, doc SpecDoc, lease time.Duration) (*Coordinator, *httptest.Server) {
	t.Helper()
	reg := newTestRegistry(t, RegistryConfig{Lease: lease})
	c, err := reg.Create(doc, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewService(reg).Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// TestEndToEndDeterminism is the subsystem's acceptance check: the campaign
// service plus two workers over loopback HTTP — with a third "worker" that claims a
// task and dies, forcing a lease expiry and reassignment — must pool a
// merged report byte-identical (under encoding/json) to a single-process
// cluster.Run over the same spec and split. The zombie's late completion
// must be dropped as a duplicate.
func TestEndToEndDeterminism(t *testing.T) {
	doc := testDoc()

	// Single-process reference: same document, same lowering, same split.
	spec, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	tasks := cluster.Split(spec.Injections, doc.Tasks)
	refReports := cluster.Run(spec, tasks, cluster.Config{
		Workers:            2,
		TaskStateBudget:    doc.TaskStateBudget,
		MaxFindingsPerTask: doc.MaxFindingsPerTask,
	})
	want, err := json.Marshal(MergedReport{
		Complete: true,
		Tasks:    refReports,
		Summary:  cluster.Summarize(refReports),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Distributed run. A short lease keeps the kill-and-reassign path fast.
	coord, srv := serveTestCampaign(t, doc, 300*time.Millisecond)

	// The zombie claims a task and goes silent: a worker killed mid-task.
	// Its lease must lapse and the task be re-served to a live worker.
	zombie := coord.Claim("zombie")
	if zombie.Task == nil {
		t.Fatal("zombie claimed nothing")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		stats = map[string]WorkerStats{}
		errs  = map[string]error{}
	)
	for _, id := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			s, err := RunWorker(ctx, WorkerConfig{
				Coordinator: srv.URL,
				ID:          id,
				Poll:        50 * time.Millisecond,
			})
			mu.Lock()
			stats[id], errs[id] = s, err
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %s: %v", id, err)
		}
	}

	select {
	case <-coord.Done():
	default:
		t.Fatal("workers exited but the campaign is not done")
	}
	if got := coord.Status().Counters.TasksReassigned; got < 1 {
		t.Errorf("killed worker's task was never reassigned (reassigned=%d)", got)
	}

	// The zombie rises and posts its stale claim: dropped as a duplicate.
	resp, err := coord.Complete("zombie", zombie.Task.ID, syntheticResult(1))
	if err != nil || !resp.Duplicate {
		t.Errorf("zombie completion not deduplicated: %+v, %v", resp, err)
	}

	// The merged report over HTTP is byte-identical to the reference.
	httpResp, err := srv.Client().Get(srv.URL + V1CampaignPath(coord.ID(), "report"))
	if err != nil {
		t.Fatal(err)
	}
	var merged MergedReport
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	got := bytes.TrimSpace(body.Bytes())
	if err := json.Unmarshal(got, &merged); err != nil {
		t.Fatal(err)
	}
	if !merged.Complete {
		t.Fatal("merged report not marked complete")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed report differs from single-process cluster.Run:\n got  %s\n want %s", got, want)
	}
	if merged.Summary.Tasks != len(tasks) || len(merged.Summary.Findings) == 0 {
		t.Errorf("merged summary implausible: %+v", merged.Summary)
	}

	// The pooled exploration counters equal the single-process ones exactly
	// (they are deterministic tallies merged like findings), and they are not
	// trivially zero — the factorial sweep must fork at comparisons.
	refSummary := cluster.Summarize(refReports)
	if merged.Summary.Exec != refSummary.Exec {
		t.Errorf("pooled exec counters differ from single-process cluster.Run:\n got  %+v\n want %+v",
			merged.Summary.Exec, refSummary.Exec)
	}
	if refSummary.Exec.Forks() == 0 || refSummary.Exec.MaxFrontier == 0 {
		t.Errorf("reference exec counters implausibly zero: %+v", refSummary.Exec)
	}

	// Both live workers did real work.
	totalDone := 0
	for id, s := range stats {
		if s.Claimed == 0 {
			t.Errorf("worker %s never claimed a task", id)
		}
		totalDone += s.Completed
	}
	if totalDone != len(tasks) {
		t.Errorf("workers completed %d tasks, campaign has %d", totalDone, len(tasks))
	}

	// Fleet status over HTTP sees all three workers and a settled verdict.
	stResp, err := srv.Client().Get(srv.URL + V1CampaignPath(coord.ID(), "status"))
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if len(st.Workers) != 3 {
		t.Errorf("status lists %d workers, want 3 (w1, w2, zombie): %+v", len(st.Workers), st.Workers)
	}
	if st.Verdict != "refuted" {
		t.Errorf("verdict %q, want refuted (factorial register errors are findable)", st.Verdict)
	}

	// The obs operational endpoints are served on the same mux: /debug/vars
	// carries the registry snapshot under "symplfied", and /metrics serves
	// the Prometheus text exposition.
	dv, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Snap map[string]any `json:"symplfied"`
	}
	if err := json.NewDecoder(dv.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	dv.Body.Close()
	for _, name := range []string{"symplfied_dist_tasks_completed_total", "symplfied_dist_tasks_served_total"} {
		if v, _ := vars.Snap[name].(float64); v == 0 {
			t.Errorf("registry counter %s not published at /debug/vars: %v", name, vars.Snap[name])
		}
	}
	pm, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promText := new(bytes.Buffer)
	promText.ReadFrom(pm.Body)
	pm.Body.Close()
	if !bytes.Contains(promText.Bytes(), []byte("symplfied_dist_tasks_completed_total")) {
		t.Errorf("/metrics missing coordinator counters:\n%s", promText.String())
	}
}

// TestTimedOutTaskSettles guards against a fleet livelock: a sweep cut short
// by the per-injection wall-clock timeout reports Interrupted while the
// task's context is still live. The worker must post that partial result —
// it is exactly what a single-process cluster.Run records before finishing —
// not abandon the task, or the coordinator would re-lease it, the next worker
// would time out the same injection, and the campaign would never complete.
func TestTimedOutTaskSettles(t *testing.T) {
	doc := testDoc()
	// Every activated injection deadlines before exploring a single state.
	doc.PerInjectionTimeout = time.Nanosecond

	coord, srv := serveTestCampaign(t, doc, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stats, err := RunWorker(ctx, WorkerConfig{
		Coordinator: srv.URL,
		ID:          "w",
		Poll:        20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("campaign with timed-out injections never settled (tasks abandoned instead of posted)")
	}
	if stats.Abandoned != 0 {
		t.Errorf("timed-out tasks abandoned %d times, want 0", stats.Abandoned)
	}
	rep := coord.Report()
	if !rep.Complete {
		t.Fatal("merged report not complete")
	}
	if stats.Completed != len(rep.Tasks) {
		t.Errorf("worker completed %d of %d tasks", stats.Completed, len(rep.Tasks))
	}
	// The timeouts are recorded, not hidden: the pooled report marks the
	// deadlined tasks Interrupted, just as cluster.Run would.
	if rep.Summary.Interrupted == 0 {
		t.Error("no task marked Interrupted despite per-injection timeouts")
	}
}

// TestWorkerRejectsForeignFingerprint: a worker whose locally-lowered spec
// fingerprints differently from the service's must refuse to serve, whether
// it is pinned to the campaign or meets it through the fleet claim.
func TestWorkerRejectsForeignFingerprint(t *testing.T) {
	for _, pinned := range []bool{true, false} {
		t.Run(fmt.Sprintf("pinned=%v", pinned), func(t *testing.T) {
			coord, real := serveTestCampaign(t, testDoc(), 0)
			// Corrupt the fingerprint the campaign's spec route hands out.
			sr := coord.SpecResponse()
			sr.Fingerprint = "not-the-real-fingerprint"
			mux := http.NewServeMux()
			mux.HandleFunc("GET "+V1CampaignPath("{id}", "spec"), func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, sr)
			})
			mux.Handle("/", real.Config.Handler)
			srv := httptest.NewServer(mux)
			defer srv.Close()

			cfg := WorkerConfig{Coordinator: srv.URL, ID: "w"}
			if pinned {
				cfg.Campaign = coord.ID()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := RunWorker(ctx, cfg); err == nil {
				t.Error("worker served a campaign with a mismatched fingerprint")
			}
		})
	}
}

// TestWorkerRejectsNonService: a base URL that answers 404 on
// /v1/campaigns is not a campaign service. The worker fails at once, naming
// the URL, instead of retrying as it does while a service is starting.
func TestWorkerRejectsNonService(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, ID: "w"})
	if err == nil {
		t.Fatal("worker accepted a server without the /v1 API")
	}
	if want := srv.URL + PathV1Campaigns; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("a 404 was retried for %v; it is decisive", d)
	}
}
