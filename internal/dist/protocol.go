package dist

import (
	"encoding/json"
	"time"

	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/crossval"
	"symplfied/internal/faults"
	"symplfied/internal/simplescalar"
)

// The campaign service's JSON HTTP API. All bodies are JSON; errors are
// plain text with a non-2xx status.
//
// Versioned, campaign-scoped surface (dist.Service):
//
//	POST /v1/campaigns                 CreateCampaignRequest -> CampaignInfo (429 at tenant quota)
//	GET  /v1/campaigns                 -> CampaignList        every campaign, priority-ranked
//	POST /v1/campaigns/{id}/cancel     -> 204                 stop serving; unsettled tasks stay unsettled
//	GET  /v1/campaigns/{id}/spec       -> SpecResponse        campaign document + fingerprint
//	POST /v1/campaigns/{id}/claim      ClaimRequest -> ClaimResponse
//	POST /v1/campaigns/{id}/heartbeat  HeartbeatRequest -> 204 (409 when the lease is lost)
//	POST /v1/campaigns/{id}/complete   CompleteRequest -> CompleteResponse
//	GET  /v1/campaigns/{id}/status     -> StatusResponse      live campaign status
//	GET  /v1/campaigns/{id}/report     -> MergedReport        pooled report so far
//	GET  /v1/campaigns/{id}/events     -> []Event             ?after=N long-poll, ?sse=1 streams
//	POST /v1/claim                     ClaimRequest -> FleetClaimResponse (priority-weighted, any campaign)
//
// Fleet-wide, campaign-independent surface:
//
//	POST /summary/get  SummaryGetRequest -> SummaryGetResponse
//	POST /summary/put  SummaryPutRequest -> 204
//	GET  /debug/vars   -> expvar counters; /metrics Prometheus text
const (
	PathSummaryGet = "/summary/get"
	PathSummaryPut = "/summary/put"

	// PathV1Campaigns is the campaign collection; campaign-scoped calls live
	// under PathV1Campaigns + "/{id}/..." (see V1CampaignPath).
	PathV1Campaigns = "/v1/campaigns"
	// PathV1Claim is the fleet-level claim: the service picks the campaign
	// (priority-weighted across every open campaign whose tenant is under
	// quota) and answers with the campaign ID alongside the task.
	PathV1Claim = "/v1/claim"
)

// V1CampaignPath renders a campaign-scoped route: op is one of "spec",
// "claim", "heartbeat", "complete", "status", "report", "events", "cancel".
func V1CampaignPath(id, op string) string {
	return PathV1Campaigns + "/" + id + "/" + op
}

// SpecResponse hands a worker everything it needs to rebuild the campaign.
type SpecResponse struct {
	Spec SpecDoc
	// Fingerprint is campaign.Fingerprint of the coordinator's lowered spec.
	// A worker that lowers the document to a different fingerprint must not
	// serve: it would pool results from a different search.
	Fingerprint string
	// Lease is the task lease duration; a worker must heartbeat well within
	// it (Lease/3 is the convention) or its task is reassigned.
	Lease time.Duration
}

// ClaimRequest asks for a task.
type ClaimRequest struct {
	Worker string
}

// TaskAssignment is one leased task.
type TaskAssignment struct {
	ID int
	// Injections is the task's slice of the injection space, exactly as
	// cluster.Split partitioned it. Empty in crossval campaigns.
	Injections []faults.Injection `json:",omitempty"`
	// Points is the task's slice of a crossval campaign's injection sites,
	// exactly as cluster.SplitPoints partitioned it. Empty in symbolic-search
	// campaigns.
	Points []simplescalar.Point `json:",omitempty"`
}

// ClaimResponse answers a claim.
type ClaimResponse struct {
	// Done is true when every task is complete: the worker should exit.
	Done bool
	// Task is nil (with Done false) when all remaining tasks are currently
	// leased: the worker should poll again shortly.
	Task *TaskAssignment `json:",omitempty"`
	// Lease echoes the lease duration for this assignment.
	Lease time.Duration `json:",omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker string
	Task   int
}

// TaskResult is what a worker posts back: the serialized per-injection
// reports its sweep produced, in execution order, plus the infrastructure
// failure text if the task died on one. The coordinator folds the reports
// with cluster.PoolReports, reconstructing the exact TaskReport the worker's
// cluster.RunTaskCtx computed.
type TaskResult struct {
	Reports []checker.InjectionReport `json:",omitempty"`
	// PointReports carries a crossval task's per-site verdicts; the
	// coordinator folds them with crossval.Merge, whose canonical ordering
	// makes the merged report independent of task partitioning.
	PointReports []crossval.PointReport `json:",omitempty"`
	Failure      string                 `json:",omitempty"`
}

// CompleteRequest posts a finished task.
type CompleteRequest struct {
	Worker string
	Task   int
	Result TaskResult
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Accepted is true when this completion settled the task.
	Accepted bool
	// Duplicate is true when the task was already complete (a re-claimed
	// task's earlier owner posted late); the posted result was dropped.
	Duplicate bool
	// Done is true when the campaign has no unsettled tasks left. A pinned
	// or draining worker hearing Done exits without claiming again.
	Done bool
}

// SummaryGetRequest looks up one function summary in the service's
// shared content-addressed cache. The key is canonical over the function's
// body and detector lines (internal/summary), so a served value is correct
// for any worker that derives the same key — no fingerprint check needed.
type SummaryGetRequest struct {
	Key string
}

// SummaryGetResponse answers a summary lookup. Value is the JSON-encoded
// summary.FuncSummary when Found.
type SummaryGetResponse struct {
	Found bool
	Value json.RawMessage `json:",omitempty"`
}

// SummaryPutRequest publishes a computed function summary to the
// service's shared cache. The service validates the value decodes before
// admitting it.
type SummaryPutRequest struct {
	Key   string
	Value json.RawMessage
}

// WorkerStatus describes one worker the coordinator has heard from.
type WorkerStatus struct {
	ID string
	// LastSeen is how long ago the worker last spoke (claim, heartbeat or
	// completion).
	LastSeen time.Duration
	// Live is true when the worker spoke within a lease duration.
	Live bool
	// Leased lists the task IDs the worker currently holds.
	Leased []int `json:",omitempty"`
	// Completed counts tasks this worker settled.
	Completed int
}

// Counters are the coordinator's monotonic event counts (also published via
// expvar under symplfied_dist).
type Counters struct {
	TasksServed          int64
	TasksCompleted       int64
	TasksReassigned      int64
	Heartbeats           int64
	ReportsPooled        int64
	DuplicateCompletions int64
	// TasksFromCache counts tasks settled from the fleet-wide result cache
	// at claim time, without a worker lease.
	TasksFromCache int64
	// JournalErrors counts completions that pooled but failed to reach the
	// store: nonzero means a restarted service would re-run tasks the
	// operator believed journaled.
	JournalErrors int64
}

// CreateCampaignRequest submits a new campaign to the service.
type CreateCampaignRequest struct {
	// Tenant names the submitting tenant for quota accounting and fleet
	// status. Empty selects the "default" tenant.
	Tenant string `json:",omitempty"`
	// Priority weights task dispatch across campaigns sharing the fleet:
	// higher-priority campaigns are served first, ties round-robin. 0 is the
	// default priority.
	Priority int `json:",omitempty"`
	// Doc is the declarative campaign document, lowered identically by the
	// service and every worker.
	Doc SpecDoc
}

// CampaignInfo is one registry entry as listed by GET /v1/campaigns.
type CampaignInfo struct {
	// ID addresses the campaign in every /v1/campaigns/{id}/... route. It
	// embeds a prefix of the spec fingerprint plus a creation sequence
	// number, so two submissions of the same document are distinct campaigns
	// with a shared fingerprint.
	ID          string
	Tenant      string
	Priority    int `json:",omitempty"`
	Fingerprint string
	// State is "open" (accepting claims), "done" (every task settled) or
	// "cancelled".
	State string
	// Crossval marks a cross-validation campaign.
	Crossval bool `json:",omitempty"`
	// Done and Total count settled tasks and the decomposition width.
	Done, Total int
	// FromCache counts tasks answered by the fleet-wide result cache without
	// a worker lease.
	FromCache int `json:",omitempty"`
	// Verdict is the campaign's pooled verdict so far.
	Verdict string `json:",omitempty"`
}

// CampaignList answers GET /v1/campaigns. Campaigns are listed in dispatch
// order: open campaigns first, priority-ranked exactly as the fleet claim
// serves them, then settled and cancelled ones in creation order.
type CampaignList struct {
	Campaigns []CampaignInfo
}

// FleetClaimResponse answers the fleet-level POST /v1/claim: a campaign
// chosen by the service plus the task leased within it.
type FleetClaimResponse struct {
	// Campaign is the ID of the campaign the task belongs to; heartbeats and
	// the completion go to its campaign-scoped routes. Empty when no task was
	// leased.
	Campaign string `json:",omitempty"`
	// Done is true when the service has campaigns and every one is settled
	// or cancelled: the worker should exit. A service with no campaigns yet
	// answers Done=false so a fleet may start before its first submission.
	Done bool
	// Task and Lease are as in ClaimResponse, scoped to Campaign.
	Task  *TaskAssignment `json:",omitempty"`
	Lease time.Duration   `json:",omitempty"`
	// OpenCampaigns counts campaigns currently accepting claims.
	OpenCampaigns int
}

// Event is one entry in a campaign's append-only result stream, pushed to
// subscribers of GET /v1/campaigns/{id}/events as tasks settle instead of
// one final /report poll.
type Event struct {
	// Seq numbers events from 1 within the campaign; pass the last seen Seq
	// as ?after=N to long-poll for the rest.
	Seq int
	// Type is "task" (one task settled), "done" (every task settled) or
	// "cancelled".
	Type string
	// Task identifies the settled task for Type "task".
	Task int `json:",omitempty"`
	// Worker is the poster for worker-settled tasks; empty for cache- or
	// journal-settled ones.
	Worker string `json:",omitempty"`
	// FromCache marks a task answered by the fleet-wide result cache without
	// a worker lease.
	FromCache bool `json:",omitempty"`
	// Restored marks a task settled from the durable store during resume.
	Restored bool `json:",omitempty"`
	// Findings and States carry the settled task's pooled tallies.
	Findings int `json:",omitempty"`
	States   int `json:",omitempty"`
}

// StatusResponse is the live fleet status.
type StatusResponse struct {
	// ID, Tenant, Priority and State identify the campaign within the
	// service.
	ID       string `json:",omitempty"`
	Tenant   string `json:",omitempty"`
	Priority int    `json:",omitempty"`
	// State is "open", "done" or "cancelled".
	State string `json:",omitempty"`
	// Queued, Leased, Done partition the Total tasks.
	Queued, Leased, Done, Total int
	// Verdict is the pooled verdict over the tasks done so far: "refuted" as
	// soon as any finding pooled, "proven resilient" only when every task
	// completed cleanly, "inconclusive" for a finished campaign with
	// incomplete tasks, "open" while tasks remain.
	Verdict string
	// Findings and States tally the pooled results so far.
	Findings int
	States   int
	Workers  []WorkerStatus
	Counters Counters
}

// MergedReport is the pooled campaign result: per-task reports in task-ID
// order plus their summary. For a complete campaign it is identical — byte
// for byte under encoding/json — to pooling a single-process cluster.Run
// over the same spec and split. Tasks not yet settled appear Interrupted
// with empty tallies, mirroring how cluster.RunCtx reports tasks a cancelled
// study never started.
type MergedReport struct {
	Complete bool
	Tasks    []cluster.TaskReport
	Summary  cluster.Summary
	// Crossval is the pooled mismatch report of a crossval campaign (nil
	// otherwise). For a complete campaign it is byte-identical to a
	// single-process crossval.Run over the same spec.
	Crossval *crossval.Report `json:",omitempty"`
}
