package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestService spins up a registry-backed service over loopback HTTP and a
// typed client pointed at it.
func newTestService(t *testing.T, cfg RegistryConfig) (*Registry, *Client) {
	t.Helper()
	reg := newTestRegistry(t, cfg)
	srv := httptest.NewServer(NewService(reg).Handler())
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL, srv.Client())
	cl.Backoff = time.Millisecond
	return reg, cl
}

// TestServiceV1Lifecycle walks a campaign through every v1 route with the
// typed client: create, list, spec, claim/heartbeat/complete, status, report,
// events, and finally cancel on a second campaign.
func TestServiceV1Lifecycle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, cl := newTestService(t, RegistryConfig{})

	info, err := cl.Create(ctx, CreateCampaignRequest{Tenant: "alice", Priority: 2, Doc: testDoc()})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.State != StateOpen || info.Total != 4 || info.Tenant != "alice" || info.Priority != 2 {
		t.Fatalf("created campaign info %+v", info)
	}

	list, err := cl.Campaigns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != info.ID {
		t.Fatalf("campaign list %+v", list)
	}

	sr, err := cl.Spec(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Fingerprint != info.Fingerprint || sr.Spec.App != "factorial" {
		t.Fatalf("spec response %+v", sr)
	}

	// Drive every task over the wire.
	for {
		resp, err := cl.Claim(ctx, info.ID, "w")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Done {
			break
		}
		if resp.Task == nil {
			t.Fatal("claim wedged: no task and not done")
		}
		if err := cl.Heartbeat(ctx, info.ID, "w", resp.Task.ID); err != nil {
			t.Fatalf("heartbeat under a live lease: %v", err)
		}
		cr, err := cl.Complete(ctx, info.ID, CompleteRequest{
			Worker: "w", Task: resp.Task.ID, Result: syntheticResult(resp.Task.ID + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !cr.Accepted {
			t.Fatalf("completion not accepted: %+v", cr)
		}
	}

	st, err := cl.Status(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != info.ID || st.State != StateDone || st.Done != 4 {
		t.Fatalf("status %+v, want done 4/4 with campaign identity", st)
	}
	rep, err := cl.Report(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || len(rep.Tasks) != 4 {
		t.Fatalf("report %+v", rep.Summary)
	}

	// The event stream recorded every settle plus the terminal done.
	events, err := cl.Events(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 || events[4].Type != "done" {
		t.Fatalf("events %+v, want 4 task events and a done", events)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has Seq %d", i, ev.Seq)
		}
	}
	// A cursor past the tail returns nothing (long-poll would wait; the
	// campaign is done so nothing more comes — use a short-deadline context).
	shortCtx, shortCancel := context.WithTimeout(ctx, 300*time.Millisecond)
	if evs, err := cl.Events(shortCtx, info.ID, 5); err == nil && len(evs) != 0 {
		t.Errorf("events past the tail: %+v", evs)
	}
	shortCancel()

	// Lifecycle route: cancel a second campaign.
	info2, err := cl.Create(ctx, CreateCampaignRequest{Tenant: "bob", Doc: testDocB()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CancelCampaign(ctx, info2.ID); err != nil {
		t.Fatal(err)
	}
	st2, err := cl.Status(ctx, info2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateCancelled {
		t.Errorf("state %q after cancel over HTTP", st2.State)
	}

	// Unknown campaign IDs 404 on scoped routes and cancel.
	if _, err := cl.Claim(ctx, "nonesuch", "w"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("claim on unknown campaign: %v, want 404", err)
	}
	if err := cl.CancelCampaign(ctx, "nonesuch"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("cancel of unknown campaign: %v, want 404", err)
	}
}

// TestServiceCreateQuota: the HTTP layer maps ErrQuota to 429.
func TestServiceCreateQuota(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, cl := newTestService(t, RegistryConfig{Quotas: Quotas{MaxOpenCampaigns: 1}})
	if _, err := cl.Create(ctx, CreateCampaignRequest{Tenant: "a", Doc: testDoc()}); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Create(ctx, CreateCampaignRequest{Tenant: "a", Doc: testDocB()})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("create at quota: %v, want 429", err)
	}
	// A malformed document is a 400, not a quota error.
	_, err = cl.Create(ctx, CreateCampaignRequest{Tenant: "b", Doc: SpecDoc{Class: "register", Goal: "crash"}})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("create of bad document: %v, want 400", err)
	}
}

// TestServiceEventsLongPoll: a poll opened before any event blocks until a
// task settles, then delivers it.
func TestServiceEventsLongPoll(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg, cl := newTestService(t, RegistryConfig{})
	info, err := cl.Create(ctx, CreateCampaignRequest{Doc: testDoc()})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := reg.Get(info.ID)

	settled := make(chan struct{})
	go func() {
		defer close(settled)
		time.Sleep(100 * time.Millisecond)
		resp := c.Claim("w")
		if resp.Task != nil {
			c.Complete("w", resp.Task.ID, syntheticResult(7))
		}
	}()
	start := time.Now()
	events, err := cl.Events(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-settled
	if len(events) == 0 {
		t.Fatal("long-poll returned empty despite a settle during the hold")
	}
	if events[0].Type != "task" || events[0].Worker != "w" {
		t.Errorf("event %+v, want a worker task settle", events[0])
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Error("long-poll returned before the settle: it did not block")
	}
}

// TestServiceEventsSSE: ?sse=1 streams one data: frame per event and
// terminates the stream after the terminal done event.
func TestServiceEventsSSE(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg, cl := newTestService(t, RegistryConfig{})
	info, err := cl.Create(ctx, CreateCampaignRequest{Doc: testDoc()})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := reg.Get(info.ID)

	// Settle the whole campaign concurrently with the stream read.
	go func() {
		for {
			resp := c.Claim("w")
			if resp.Done {
				return
			}
			if resp.Task == nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
			c.Complete("w", resp.Task.ID, syntheticResult(resp.Task.ID+1))
		}
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		cl.Base+V1CampaignPath(info.ID, "events")+"?sse=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		events = append(events, ev)
	}
	// The scanner ends because the server closed the stream after "done" —
	// not because the client gave up.
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 || events[len(events)-1].Type != "done" {
		t.Fatalf("SSE events %+v, want 4 tasks and a terminal done", events)
	}
}

// TestClientRetryPolicy pins the retry semantics to the behaviors the fleet
// depends on: 5xx and transport errors retry with backoff, 4xx is decisive,
// heartbeat 409 maps to ErrLeaseLost without retrying, and create never
// retries (it is not idempotent).
func TestClientRetryPolicy(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	t.Run("5xx retried until success", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 2 {
				http.Error(w, "proxy hiccup", http.StatusBadGateway)
				return
			}
			writeJSON(w, StatusResponse{Total: 4, Verdict: "open"})
		}))
		defer srv.Close()
		cl := NewClient(srv.URL, srv.Client())
		cl.Backoff = time.Millisecond
		st, err := cl.Status(ctx, "c1")
		if err != nil {
			t.Fatalf("status after transient 502s: %v", err)
		}
		if st.Total != 4 || calls.Load() != 3 {
			t.Errorf("status %+v after %d calls, want success on attempt 3", st, calls.Load())
		}
	})

	t.Run("5xx exhausts attempts and fails", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, "down", http.StatusServiceUnavailable)
		}))
		defer srv.Close()
		cl := NewClient(srv.URL, srv.Client())
		cl.Backoff = time.Millisecond
		cl.Retries = 3
		if _, err := cl.Status(ctx, "c1"); err == nil {
			t.Fatal("status succeeded against a dead server")
		}
		if calls.Load() != 3 {
			t.Errorf("%d attempts, want exactly Retries=3", calls.Load())
		}
	})

	t.Run("4xx is decisive, no retry", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, "no such campaign", http.StatusNotFound)
		}))
		defer srv.Close()
		cl := NewClient(srv.URL, srv.Client())
		cl.Backoff = time.Millisecond
		if _, err := cl.Status(ctx, "gone"); err == nil {
			t.Fatal("status on 404 succeeded")
		}
		if calls.Load() != 1 {
			t.Errorf("%d attempts on a 404, want 1", calls.Load())
		}
	})

	t.Run("heartbeat 409 wraps ErrLeaseLost, single attempt", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, "dist: lease lost", http.StatusConflict)
		}))
		defer srv.Close()
		cl := NewClient(srv.URL, srv.Client())
		cl.Backoff = time.Millisecond
		err := cl.Heartbeat(ctx, "c1", "w", 0)
		if !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("heartbeat 409: %v, want ErrLeaseLost", err)
		}
		if calls.Load() != 1 {
			t.Errorf("%d heartbeat attempts, want 1", calls.Load())
		}
	})

	t.Run("create never retries", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, "busy", http.StatusServiceUnavailable)
		}))
		defer srv.Close()
		cl := NewClient(srv.URL, srv.Client())
		cl.Backoff = time.Millisecond
		if _, err := cl.Create(ctx, CreateCampaignRequest{Doc: testDoc()}); err == nil {
			t.Fatal("create against a 503 succeeded")
		}
		if calls.Load() != 1 {
			t.Errorf("%d create attempts, want 1 (a retry could register the document twice)", calls.Load())
		}
	})

	t.Run("complete retried: the coordinator dedups reposts", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 1 {
				http.Error(w, "hiccup", http.StatusBadGateway)
				return
			}
			writeJSON(w, CompleteResponse{Accepted: true})
		}))
		defer srv.Close()
		cl := NewClient(srv.URL, srv.Client())
		cl.Backoff = time.Millisecond
		resp, err := cl.Complete(ctx, "c1", CompleteRequest{Worker: "w", Task: 0, Result: syntheticResult(1)})
		if err != nil || !resp.Accepted {
			t.Fatalf("complete after a transient 502: %+v, %v", resp, err)
		}
		if calls.Load() != 2 {
			t.Errorf("%d complete attempts, want 2", calls.Load())
		}
	})
}
