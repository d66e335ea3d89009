package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"symplfied/internal/campaign"
	"symplfied/internal/cluster"
	"symplfied/internal/crossval"
	"symplfied/internal/obs"
	"symplfied/internal/summary"
)

// Worker-side live metrics on the shared obs registry, served by the
// symworker binary's -metrics-addr endpoint. Lease and heartbeat health is
// the fleet's early-warning signal: rising heartbeat failures or lost leases
// mean the coordinator (or the network) is struggling before any task
// visibly fails.
var (
	wClaimed    = obs.Default().Counter(obs.MWorkerClaimed)
	wCompleted  = obs.Default().Counter(obs.MWorkerCompleted)
	wDuplicates = obs.Default().Counter(obs.MWorkerDuplicates)
	wAbandoned  = obs.Default().Counter(obs.MWorkerAbandoned)
	wHeartbeats = obs.Default().Counter(obs.MWorkerHeartbeats)
	wHBFailures = obs.Default().Counter(obs.MWorkerHBFailures)
	wLeasesLost = obs.Default().Counter(obs.MWorkerLeasesLost)
	wPostBytes  = obs.Default().Counter(obs.MWorkerPostBytes)
	wUploadSecs = obs.Default().Histogram(obs.MWorkerUploadSecond, nil)
)

// WorkerConfig configures a pull-based campaign worker.
type WorkerConfig struct {
	// Coordinator is the campaign service base URL (e.g. http://host:8080).
	Coordinator string
	// ID names this worker in leases and fleet status. Required.
	ID string
	// Client is the HTTP client (nil: a client with a sane timeout).
	Client *http.Client
	// Campaign pins the worker to one campaign ID: it claims only from that
	// campaign's routes and exits when the campaign settles. Empty serves
	// the whole fleet.
	Campaign string
	// Drain makes an unpinned worker exit as soon as the campaign it just
	// fed reports done, instead of claiming from the next open campaign.
	Drain bool
	// Poll is how long to wait between claims when every remaining task is
	// leased elsewhere (0: 500ms).
	Poll time.Duration
	// OnTask, if set, is called when a task is claimed and again when it
	// settles (posted, abandoned, or lost), for CLI progress output. The
	// campaign argument is the campaign ID.
	OnTask func(campaign, event string, task int)
	// Parallelism fans each leased task's injection sweep across this many
	// cores (checker.Spec.Parallelism semantics: 0 selects GOMAXPROCS, 1 is
	// sequential). A worker holds one lease at a time, so this is how a node
	// uses all its cores on one task. Per-node and operational: it is not
	// part of the campaign spec and never enters the fingerprint, so a fleet
	// may mix parallelism levels freely.
	Parallelism int
	// UseSummaries enables compositional fault summaries
	// (checker.Spec.UseSummaries) on this worker. Like Parallelism it is
	// per-node and operational — absent from the campaign spec and the
	// fingerprint — because a summarized task result is identical to a plain
	// one apart from the Summarized markers, so a fleet may mix summarizing
	// and plain workers: the pooled verdicts and tallies are unchanged, and
	// only the markers record which node proved what. The node builds one
	// summary set per campaign and shares the representative memo across
	// every task it leases from it.
	UseSummaries bool
	// MergeStates enables post-dominator state merging and cycle
	// acceleration (checker.Spec.MergeStates) on this worker. Per-node and
	// operational like UseSummaries: a merged task result carries identical
	// verdicts and findings, only its Merged markers and lower state counts
	// differ, so the fleet may mix merging and non-merging workers.
	MergeStates bool
	// ShareSummaryCache backs the node's summary cache with the service's
	// /summary endpoints, so a function any worker analyzed is a cache hit
	// fleet-wide. Implies UseSummaries.
	ShareSummaryCache bool
}

// WorkerStats summarizes one worker's run.
type WorkerStats struct {
	// Claimed counts tasks leased to this worker.
	Claimed int
	// Completed counts results the coordinator accepted.
	Completed int
	// Duplicates counts results the coordinator dropped as already settled.
	Duplicates int
	// Abandoned counts tasks dropped mid-sweep (cancellation or lost lease).
	Abandoned int
}

// sweeper is one campaign's locally-lowered sweep closure plus its lease
// cadence. A fleet worker builds one per campaign it encounters and reuses
// it for every task of that campaign.
type sweeper struct {
	sweep          func(context.Context, TaskAssignment) TaskResult
	heartbeatEvery time.Duration
}

// buildSweeper fetches campaign id's document, lowers it locally, verifies
// the fingerprint against the service's, and wraps the mode's sweep in a
// closure so the claim/heartbeat/post loop is shared between symbolic-search
// and crossval campaigns.
func buildSweeper(ctx context.Context, cl *Client, cfg WorkerConfig, id string) (*sweeper, error) {
	sr, err := cl.Spec(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("dist: fetch campaign spec from %s: %w", cfg.Coordinator, err)
	}
	sw := &sweeper{heartbeatEvery: sr.Lease / 3}
	if sw.heartbeatEvery <= 0 {
		sw.heartbeatEvery = time.Second
	}
	if sr.Spec.Crossval {
		xspec, err := sr.Spec.BuildCrossval()
		if err != nil {
			return nil, fmt.Errorf("dist: worker cannot build crossval spec: %w", err)
		}
		if fp := crossval.Fingerprint(xspec); fp != sr.Fingerprint {
			return nil, fmt.Errorf("dist: crossval fingerprint mismatch: coordinator %s, worker %s (diverged builds?)",
				sr.Fingerprint, fp)
		}
		sw.sweep = func(taskCtx context.Context, asg TaskAssignment) TaskResult {
			prs, _ := crossval.RunPointsCtx(taskCtx, xspec, asg.Points, cfg.Parallelism)
			return TaskResult{PointReports: prs}
		}
		return sw, nil
	}
	spec, err := sr.Spec.Build()
	if err != nil {
		return nil, fmt.Errorf("dist: worker cannot build campaign spec: %w", err)
	}
	if fp := campaign.Fingerprint(spec); fp != sr.Fingerprint {
		return nil, fmt.Errorf("dist: spec fingerprint mismatch: coordinator %s, worker %s (diverged builds?)",
			sr.Fingerprint, fp)
	}
	if cfg.UseSummaries || cfg.ShareSummaryCache {
		// One summary set for the whole campaign on this node. With
		// ShareSummaryCache the local LRU sits in front of the service's
		// fleet-wide cache: misses fall through to /summary/get, computed
		// summaries publish via /summary/put. Content-addressed keys make
		// the remote values trustworthy without any fingerprint handshake.
		spec.UseSummaries = true
		if cfg.ShareSummaryCache {
			spec.SummaryCache = summary.NewCache(0, &httpSummaryStore{ctx: ctx, cl: cl})
		}
		spec.EnsureSummaries()
	}
	if cfg.MergeStates {
		// One control-flow analysis (post-dominators, merge points) for
		// the whole campaign on this node, shared by every task.
		spec.MergeStates = true
		spec.EnsureMerge()
	}
	spec.Parallelism = cfg.Parallelism
	sw.sweep = func(taskCtx context.Context, asg TaskAssignment) TaskResult {
		task := cluster.Task{ID: asg.ID, Injections: asg.Injections}
		rep, irs := cluster.RunTaskCtx(taskCtx, spec, task, sr.Spec.TaskStateBudget, sr.Spec.MaxFindingsPerTask)
		return TaskResult{Reports: irs, Failure: rep.Failure}
	}
	return sw, nil
}

// waitForService blocks until the base URL answers GET /v1/campaigns. It
// retries transport errors and 5xx replies briefly, so a worker started
// moments before its service still connects; any other reply means the URL
// is not a campaign service.
func waitForService(ctx context.Context, cl *Client) error {
	url := cl.Base + PathV1Campaigns
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, 300*time.Millisecond) {
			break
		}
		var out CampaignList
		err := cl.do(ctx, http.MethodGet, url, nil, &out, cl.control(), 1)
		if err == nil {
			return nil
		}
		if !retryable(err) {
			return fmt.Errorf("dist: %s is not a campaign service: %w", url, err)
		}
		lastErr = err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("dist: probe service %s: %w", url, lastErr)
}

// RunWorker serves one worker until its work runs out or ctx is cancelled.
//
// An unpinned worker claims from the fleet-level dispatcher (POST
// /v1/claim): each claim names the campaign the task belongs to, the worker
// lowers that campaign's spec and verifies its fingerprint on first contact,
// and finishing one campaign rolls straight into the next open one. It exits
// when the service reports the fleet drained (every campaign settled or
// cancelled) — or, under Drain, as soon as the campaign it just fed
// completes. Campaign pins the worker to that campaign's scoped routes; it
// exits when the campaign settles.
//
// Each task is swept under a renewable lease (heartbeats every lease/3; a
// lost lease cancels the sweep) and posted. Cancellation mid-task abandons
// the task — its lease lapses and the service re-serves it — and returns
// cleanly with the stats so far.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	var stats WorkerStats
	if cfg.ID == "" {
		return stats, fmt.Errorf("dist: worker needs an ID")
	}
	// No global client timeout: completion posts carry whole task results
	// (every finding with its trace) and can legitimately take minutes.
	// The Client applies per-call deadlines instead.
	cl := NewClient(cfg.Coordinator, cfg.Client)
	poll := cfg.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	if err := waitForService(ctx, cl); err != nil {
		return stats, err
	}

	pinned := cfg.Campaign
	sweepers := map[string]*sweeper{}
	getSweeper := func(id string) (*sweeper, error) {
		if sw, ok := sweepers[id]; ok {
			return sw, nil
		}
		sw, err := buildSweeper(ctx, cl, cfg, id)
		if err != nil {
			return nil, err
		}
		sweepers[id] = sw
		return sw, nil
	}
	// A pinned worker lowers its campaign up front, so a fingerprint
	// mismatch aborts before any claim.
	if pinned != "" {
		if _, err := getSweeper(pinned); err != nil {
			return stats, err
		}
	}
	claim := func() (string, *TaskAssignment, bool, error) {
		if pinned == "" {
			fr, err := cl.FleetClaim(ctx, cfg.ID)
			return fr.Campaign, fr.Task, fr.Done, err
		}
		resp, err := cl.Claim(ctx, pinned, cfg.ID)
		return pinned, resp.Task, resp.Done, err
	}

	for {
		if ctx.Err() != nil {
			return stats, nil
		}
		campaignID, task, done, err := claim()
		if err != nil {
			return stats, err
		}
		if done {
			return stats, nil
		}
		if task == nil {
			if !sleepCtx(ctx, poll) {
				return stats, nil
			}
			continue
		}
		sw, err := getSweeper(campaignID)
		if err != nil {
			return stats, err
		}
		stats.Claimed++
		wClaimed.Inc()
		if cfg.OnTask != nil {
			cfg.OnTask(campaignID, "claimed", task.ID)
		}
		outcome, done, err := runOneTask(ctx, cl, cfg, campaignID, *task, sw)
		if err != nil {
			return stats, err
		}
		switch outcome {
		case "completed":
			stats.Completed++
			wCompleted.Inc()
		case "duplicate":
			stats.Duplicates++
			wDuplicates.Inc()
		default:
			stats.Abandoned++
			wAbandoned.Inc()
		}
		if cfg.OnTask != nil {
			cfg.OnTask(campaignID, outcome, task.ID)
		}
		// This campaign settled with the post. An unpinned worker rolls into
		// the next open campaign with its next claim, unless the operator
		// asked to drain.
		if done && (pinned != "" || cfg.Drain) {
			return stats, nil
		}
	}
}

const (
	// controlTimeout bounds the small control requests (spec, claim,
	// heartbeat) so a wedged coordinator cannot hang a worker forever.
	controlTimeout = 30 * time.Second
	// completeTimeout bounds the completion post, which carries the whole
	// task result (every finding with its trace) and can be large.
	completeTimeout = 10 * time.Minute
)

// runOneTask sweeps one leased task under a heartbeat loop, delegating the
// actual sweep to the campaign mode's closure. The returned outcome is
// "completed", "duplicate" or "abandoned"; done reports that the campaign has
// no unsettled tasks left; an error means the coordinator is unreachable for
// posting a finished result.
func runOneTask(ctx context.Context, cl *Client, cfg WorkerConfig, campaignID string,
	assignment TaskAssignment, sw *sweeper) (string, bool, error) {

	taskCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat until the result is posted (large completion posts take a
	// while; the lease must not lapse under them). A lost lease (409) is
	// decisive and cancels the sweep so the worker stops burning states on a
	// task someone else now owns; transient failures (a coordinator busy
	// decoding another worker's huge result can miss a deadline) are retried
	// and only repeated consecutive failures abandon the task.
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(sw.heartbeatEvery)
		defer t.Stop()
		fails := 0
		for {
			select {
			case <-taskCtx.Done():
				return
			case <-t.C:
				err := cl.Heartbeat(taskCtx, campaignID, cfg.ID, assignment.ID)
				wHeartbeats.Inc()
				switch {
				case err == nil:
					fails = 0
				case taskCtx.Err() != nil:
					return
				default:
					wHBFailures.Inc()
					if leaseLost(err) {
						wLeasesLost.Inc()
						// The coordinator itself answered 409: the lease
						// expired and was reassigned (or the task completed
						// elsewhere). No point continuing the sweep.
						cancel()
						return
					}
					// Anything else — a transport failure, or a 5xx from a
					// proxy or an overloaded coordinator — may be transient
					// and says nothing about the lease; only repeated
					// consecutive failures abandon the task.
					if fails++; fails >= 3 {
						cancel()
						return
					}
				}
			}
		}
	}()

	result := sw.sweep(taskCtx, assignment)
	if taskCtx.Err() != nil {
		// Cancelled (worker shutdown) or lease lost mid-sweep: the partial
		// result must not be posted — the coordinator will re-serve the task
		// in full, keeping the pooled report deterministic.
		cancel()
		hb.Wait()
		return "abandoned", false, nil
	}
	// A sweep the per-injection wall-clock timeout cut short (rep.Interrupted
	// with a live taskCtx) is a settled result, not an abandonment: the
	// single-process cluster.Run records such a task Interrupted and moves
	// on, so the worker must post it the same way. Abandoning instead would
	// livelock the campaign — every worker re-claims the task, times out the
	// same injection, and abandons again. The Interrupted/TimedOut marks
	// travel inside the per-injection reports, and the coordinator's
	// cluster.PoolReports reconstructs the identical interrupted TaskReport.
	uploadStart := time.Now()
	resp, err := cl.Complete(ctx, campaignID, CompleteRequest{
		Worker: cfg.ID,
		Task:   assignment.ID,
		Result: result,
	})
	wUploadSecs.Observe(time.Since(uploadStart).Seconds())
	cancel()
	hb.Wait()
	if err != nil {
		if ctx.Err() != nil {
			return "abandoned", false, nil
		}
		return "", false, fmt.Errorf("dist: post completion of task %d: %w", assignment.ID, err)
	}
	if resp.Duplicate {
		return "duplicate", resp.Done, nil
	}
	return "completed", resp.Done, nil
}

// httpSummaryStore adapts the service's /summary endpoints to summary.Store,
// making the service the fleet-shared second level of a worker's summary
// cache. Failures degrade, never block: an unreachable service turns Load
// into a miss (the worker recomputes locally) and Save into a dropped
// publish.
type httpSummaryStore struct {
	ctx context.Context
	cl  *Client
}

func (s *httpSummaryStore) Load(key string) ([]byte, bool, error) {
	resp, err := s.cl.SummaryGet(s.ctx, key)
	if err != nil || !resp.Found {
		return nil, false, nil // degrade to a miss
	}
	return resp.Value, true, nil
}

func (s *httpSummaryStore) Save(key string, value []byte) error {
	// Best-effort publish; the cache layer already treats Save as advisory.
	_ = s.cl.SummaryPut(s.ctx, key, value)
	return nil
}

// httpError is a non-2xx reply from the coordinator — the coordinator spoke,
// as opposed to a transport failure where it may not have heard us at all.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// leaseLost reports whether a heartbeat error is decisive: the coordinator
// itself refused with 409 Conflict (ErrLeaseLost on its side). Transport
// failures and other statuses — a proxy's 502/503, a coordinator busy
// decoding another worker's result — do not prove the lease is gone and must
// be retried, not acted on.
func leaseLost(err error) bool {
	if errors.Is(err, ErrLeaseLost) {
		return true
	}
	var he *httpError
	return errors.As(err, &he) && he.status == http.StatusConflict
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &httpError{
			status: resp.StatusCode,
			msg:    fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(msg)),
		}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps for d, returning false when ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
