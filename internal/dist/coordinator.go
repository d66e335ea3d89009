package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"symplfied/internal/campaign"
	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/crossval"
	"symplfied/internal/obs"
	"symplfied/internal/symexec"
)

// Coordinator-side live metrics on the shared obs registry (scraped via
// /metrics and /debug/vars on the service mux — Service.Handler mounts
// obs.RegisterOps). These mirror the Counters struct served in
// StatusResponse; the struct stays authoritative for the wire protocol, the
// registry feeds scrapers and the -progress line.
var (
	mTasksServed     = obs.Default().Counter(obs.MDistTasksServed)
	mTasksCompleted  = obs.Default().Counter(obs.MDistTasksCompleted)
	mTasksReassigned = obs.Default().Counter(obs.MDistTasksReassigned)
	mHeartbeats      = obs.Default().Counter(obs.MDistHeartbeats)
	mReportsPooled   = obs.Default().Counter(obs.MDistReportsPooled)
	mDuplicates      = obs.Default().Counter(obs.MDistDuplicates)
	mJournalErrors   = obs.Default().Counter(obs.MDistJournalErrors)
	mWorkersLive     = obs.Default().Gauge(obs.MDistWorkersLive)
	mCoordTasksTotal = obs.Default().Gauge(obs.MTasksTotal)
	mCoordTasksDone  = obs.Default().Gauge(obs.MTasksDone)
	mCoordFindings   = obs.Default().Counter(obs.MFindings)
	mEvents          = obs.Default().Counter(obs.MDistEvents)
)

// DefaultLease is the task lease duration when the config does not set one.
// A worker heartbeats every Lease/3, so three missed heartbeats lose the
// task.
const DefaultLease = 30 * time.Second

// ErrLeaseLost is returned by Heartbeat when the caller no longer holds the
// task: its lease expired and the task was reassigned (or completed by
// someone else).
var ErrLeaseLost = errors.New("dist: lease lost")

// lease records who holds a task and until when.
type lease struct {
	worker  string
	expires time.Time
}

// workerInfo tracks one worker's liveness and load.
type workerInfo struct {
	lastSeen  time.Time
	leased    map[int]bool
	completed int
}

// Coordinator owns a campaign: the task queue, the leases, the pooled
// results and the durable result log. All exported methods are safe for
// concurrent use; Service, the HTTP layer over the Registry that owns every
// coordinator, is a thin JSON shim over them.
type Coordinator struct {
	// id, tenant and priority identify the campaign within its Registry.
	id       string
	tenant   string
	priority int

	doc         SpecDoc
	spec        checker.Spec
	fingerprint string
	leaseDur    time.Duration
	now         func() time.Time
	tasks       []cluster.Task

	// cache is the fleet-wide result cache, consulted at claim time and fed
	// on every settle. Nil disables caching.
	cache *ResultCache

	// persist durably logs one settled result into the registry's store; nil
	// once the registry is closed. A persist error does not un-settle the
	// task — see Complete for how it is surfaced.
	persist func(key string, payload any) error

	// Crossval campaigns replace the symbolic search: tasks are slices of
	// injection sites, results are per-site crossval verdicts. The lease,
	// journal and completion machinery is shared; tasks holds placeholder
	// entries so the task indexing is uniform.
	xspec  crossval.Spec
	xtasks []cluster.PointTask

	mu       sync.Mutex
	leases   map[int]lease
	results  []*cluster.TaskReport // folded reports, indexed by task ID; nil = not done
	xresults [][]crossval.PointReport
	workers  map[string]*workerInfo
	counters Counters
	doneN    int
	doneCh   chan struct{}

	cancelled bool
	// events is the campaign's append-only result stream; eventsCh is the
	// broadcast channel closed and replaced on every append, so any number
	// of subscribers can wait for "something new" without registration.
	events   []Event
	eventsCh chan struct{}
}

func (c *Coordinator) crossval() bool { return c.doc.Crossval }

// journalKind pins a journal to this campaign's decomposition width as well
// as (via the fingerprint) its spec: a journal written under a different
// -tasks split records different task boundaries and must be rejected.
// Crossval journals get their own kind: their entries decode to point
// reports, not injection reports.
func journalKind(crossval bool, tasks int) string {
	if crossval {
		return fmt.Sprintf("dist-crossval-tasks-%d", tasks)
	}
	return fmt.Sprintf("dist-tasks-%d", tasks)
}

func taskKey(id int) string { return fmt.Sprintf("task:%d", id) }

// coordOptions configures newCoordinator, the Registry's one constructor for
// created and resumed campaigns alike.
type coordOptions struct {
	id       string
	tenant   string
	priority int
	lease    time.Duration
	now      func() time.Time
	cache    *ResultCache
}

// newCoordinator lowers the spec document and partitions the injection
// space. Persistence is wired separately by the Registry: it may call restore
// with previously journaled results and set persist, both before the
// coordinator starts serving.
func newCoordinator(doc SpecDoc, opt coordOptions) (*Coordinator, error) {
	width := doc.Tasks
	if width <= 0 {
		width = 1
	}
	c := &Coordinator{
		id:       opt.id,
		tenant:   opt.tenant,
		priority: opt.priority,
		doc:      doc,
		leaseDur: opt.lease,
		now:      opt.now,
		cache:    opt.cache,
		leases:   make(map[int]lease),
		workers:  make(map[string]*workerInfo),
		doneCh:   make(chan struct{}),
		eventsCh: make(chan struct{}),
	}
	if doc.Crossval {
		xspec, err := doc.BuildCrossval()
		if err != nil {
			return nil, err
		}
		pts := xspec.Points()
		if len(pts) == 0 {
			return nil, fmt.Errorf("dist: crossval campaign enumerates no injection sites")
		}
		c.xspec = xspec
		c.fingerprint = crossval.Fingerprint(xspec)
		c.xtasks = cluster.SplitPoints(pts, width)
		c.tasks = make([]cluster.Task, len(c.xtasks))
		for i := range c.xtasks {
			c.tasks[i] = cluster.Task{ID: c.xtasks[i].ID}
		}
		c.xresults = make([][]crossval.PointReport, len(c.tasks))
	} else {
		spec, err := doc.Build()
		if err != nil {
			return nil, err
		}
		if len(spec.Injections) == 0 {
			return nil, fmt.Errorf("dist: campaign enumerates no injections")
		}
		c.spec = spec
		c.fingerprint = campaign.Fingerprint(spec)
		c.tasks = cluster.Split(spec.Injections, width)
	}
	c.results = make([]*cluster.TaskReport, len(c.tasks))
	mCoordTasksTotal.Add(int64(len(c.tasks)))
	if c.leaseDur <= 0 {
		c.leaseDur = DefaultLease
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c, nil
}

// DocFingerprint lowers doc and returns its campaign fingerprint — the key
// by which the service recognizes resubmissions of the same document —
// without building a coordinator.
func DocFingerprint(doc SpecDoc) (string, error) {
	if doc.Crossval {
		xspec, err := doc.BuildCrossval()
		if err != nil {
			return "", err
		}
		return crossval.Fingerprint(xspec), nil
	}
	spec, err := doc.Build()
	if err != nil {
		return "", err
	}
	return campaign.Fingerprint(spec), nil
}

// JournalKind is the campaign's durable-log kind string: it pins the
// decomposition width as well as (via the fingerprint) the spec, so a log
// written under a different -tasks split is rejected rather than replayed
// across different task boundaries.
func (c *Coordinator) JournalKind() string { return journalKind(c.crossval(), len(c.tasks)) }

// restore settles previously journaled results. It must run before the
// coordinator starts serving (the Registry calls it while resuming).
// Undecodable entries are re-run rather than trusted; settled results are
// published to the fleet result cache when one is wired.
func (c *Coordinator) restore(entries map[string]json.RawMessage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.tasks {
		if c.results[id] != nil {
			continue
		}
		raw, ok := entries[taskKey(id)]
		if !ok {
			continue
		}
		var res TaskResult
		if err := json.Unmarshal(raw, &res); err != nil {
			continue
		}
		c.settleLocked(id, res, Event{Restored: true})
		c.cache.Put(c.cacheKey(id), res)
	}
}

// cacheKey is task id's fleet result-cache key.
func (c *Coordinator) cacheKey(id int) string {
	return resultCacheKey(c.fingerprint, len(c.tasks), id, c.doc.TaskStateBudget, c.doc.MaxFindingsPerTask)
}

// appendEventLocked numbers and appends one event to the campaign stream and
// wakes every subscriber. Callers hold c.mu.
func (c *Coordinator) appendEventLocked(ev Event) {
	ev.Seq = len(c.events) + 1
	c.events = append(c.events, ev)
	mEvents.Inc()
	close(c.eventsCh)
	c.eventsCh = make(chan struct{})
}

// settleLocked folds a task result into its report and marks the task done.
// src carries the event provenance (worker, cache, restore); Seq, Type, Task
// and the tallies are filled here. Callers hold c.mu.
func (c *Coordinator) settleLocked(id int, res TaskResult, src Event) {
	var rep cluster.TaskReport
	if c.crossval() {
		// A crossval task's payload is its point reports; the TaskReport is
		// only the done marker plus the failure text.
		c.xresults[id] = res.PointReports
		rep = cluster.TaskReport{TaskID: c.tasks[id].ID, Completed: res.Failure == ""}
	} else {
		rep = cluster.PoolReports(c.tasks[id], res.Reports, c.doc.MaxFindingsPerTask)
	}
	if res.Failure != "" {
		rep.Failure = res.Failure
		rep.Err = errors.New(res.Failure)
	}
	c.results[id] = &rep
	delete(c.leases, id)
	c.doneN++
	mCoordTasksDone.Add(1)
	// Findings land on the coordinator's live counter so its -progress line
	// and /metrics reflect pooled results. (In a process hosting both a
	// coordinator and an in-process worker — tests — the worker's checker
	// also counts findings; the live counter is operational, not a report.)
	mCoordFindings.Add(int64(len(rep.Findings)))
	src.Type = "task"
	src.Task = c.tasks[id].ID
	src.Findings = len(rep.Findings)
	src.States = rep.StatesExplored
	c.appendEventLocked(src)
	if c.doneN == len(c.tasks) {
		c.appendEventLocked(Event{Type: "done"})
		close(c.doneCh)
	}
}

// reapLocked expires lapsed leases, returning their tasks to the queue, and
// refreshes the live-worker gauge.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if now.After(l.expires) {
			delete(c.leases, id)
			if w := c.workers[l.worker]; w != nil {
				delete(w.leased, id)
			}
			c.counters.TasksReassigned++
			mTasksReassigned.Inc()
		}
	}
	live := int64(0)
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.leaseDur {
			live++
		}
	}
	mWorkersLive.Set(live)
}

// touchLocked records that a worker spoke.
func (c *Coordinator) touchLocked(worker string, now time.Time) *workerInfo {
	w := c.workers[worker]
	if w == nil {
		w = &workerInfo{leased: make(map[int]bool)}
		c.workers[worker] = w
	}
	w.lastSeen = now
	return w
}

// Claim leases the lowest-numbered pending task to worker. Before leasing,
// each candidate task is looked up in the fleet result cache: a task whose
// (fingerprint, width, id, budget, findings-cap) key already settled under
// any campaign is answered from cache and settled without a lease — the
// cached result is byte-identical to what a worker would compute, since
// exploration is deterministic over that key. When every task is done the
// response says so (the worker should exit); when all remaining tasks are
// currently leased the response carries no task (the worker should poll
// again).
func (c *Coordinator) Claim(worker string) ClaimResponse {
	type settled struct {
		key string
		res TaskResult
	}
	var persisted []settled

	c.mu.Lock()
	now := c.now()
	c.reapLocked(now)
	w := c.touchLocked(worker, now)
	resp := func() ClaimResponse {
		if c.cancelled || c.doneN == len(c.tasks) {
			return ClaimResponse{Done: true}
		}
		for id := range c.tasks {
			if c.results[id] != nil {
				continue
			}
			if _, held := c.leases[id]; held {
				continue
			}
			if c.cache != nil {
				if res, ok := c.cache.Get(c.cacheKey(id)); ok {
					c.settleLocked(id, res, Event{FromCache: true})
					c.counters.TasksFromCache++
					persisted = append(persisted, settled{key: taskKey(id), res: res})
					if c.doneN == len(c.tasks) {
						return ClaimResponse{Done: true}
					}
					continue
				}
			}
			c.leases[id] = lease{worker: worker, expires: now.Add(c.leaseDur)}
			w.leased[id] = true
			c.counters.TasksServed++
			mTasksServed.Inc()
			asg := &TaskAssignment{ID: c.tasks[id].ID}
			if c.crossval() {
				asg.Points = c.xtasks[id].Points
			} else {
				asg.Injections = c.tasks[id].Injections
			}
			return ClaimResponse{Task: asg, Lease: c.leaseDur}
		}
		return ClaimResponse{} // all in flight: poll again
	}()
	persist := c.persist
	c.mu.Unlock()

	// Journal cache-settled tasks outside the lock, like Complete does.
	if persist != nil {
		for _, s := range persisted {
			if err := persist(s.key, s.res); err != nil {
				log.Printf("dist: journal append for cached task failed: %v", err)
				c.mu.Lock()
				c.counters.JournalErrors++
				c.mu.Unlock()
				mJournalErrors.Inc()
			}
		}
	}
	return resp
}

// Heartbeat renews worker's lease on task. ErrLeaseLost means the worker no
// longer holds it (expiry and reassignment, or completion by another
// worker): the worker must abandon the task.
func (c *Coordinator) Heartbeat(worker string, task int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.reapLocked(now)
	c.touchLocked(worker, now)
	c.counters.Heartbeats++
	mHeartbeats.Inc()
	l, held := c.leases[task]
	if !held || l.worker != worker {
		return ErrLeaseLost
	}
	c.leases[task] = lease{worker: worker, expires: now.Add(c.leaseDur)}
	return nil
}

// Complete settles a task with a worker's posted result. The first
// completion wins regardless of who currently holds the lease; a completion
// for an already-settled task (a re-claimed task's earlier owner posting
// late) is counted and dropped.
func (c *Coordinator) Complete(worker string, task int, res TaskResult) (CompleteResponse, error) {
	c.mu.Lock()
	if task < 0 || task >= len(c.tasks) {
		c.mu.Unlock()
		return CompleteResponse{}, fmt.Errorf("dist: no such task %d", task)
	}
	now := c.now()
	w := c.touchLocked(worker, now)
	if c.results[task] != nil || c.cancelled {
		// Already settled — or the campaign was cancelled, in which case a
		// late post is dropped the same way a zombie duplicate is.
		c.counters.DuplicateCompletions++
		done := c.cancelled || c.doneN == len(c.tasks)
		c.mu.Unlock()
		mDuplicates.Inc()
		return CompleteResponse{Duplicate: true, Done: done}, nil
	}
	if l, held := c.leases[task]; held {
		if prev := c.workers[l.worker]; prev != nil {
			delete(prev.leased, task)
		}
	}
	c.settleLocked(task, res, Event{Worker: worker})
	delete(w.leased, task)
	w.completed++
	c.counters.TasksCompleted++
	c.counters.ReportsPooled += int64(len(res.Reports))
	persist := c.persist
	done := c.doneN == len(c.tasks)
	c.mu.Unlock()
	mTasksCompleted.Inc()
	mReportsPooled.Add(int64(len(res.Reports)))
	c.cache.Put(c.cacheKey(task), res)
	// Journal outside the coordinator lock: a huge task result (gigabytes
	// under unlimited findings) must not stall heartbeats and claims while
	// it is serialized to disk. Journal.Append serializes appends itself.
	if persist != nil {
		if err := persist(taskKey(task), res); err != nil {
			// The result is pooled; only checkpoint durability is
			// compromised, so the completion is still acknowledged Accepted.
			// That very acknowledgement hides the failure from the worker, so
			// surface it here: log it and count it (Counters.JournalErrors,
			// expvar journal_errors) — an operator relying on the store must
			// learn checkpointing is failing before the restart that needs it.
			log.Printf("dist: journal append for task %d failed: %v", task, err)
			c.mu.Lock()
			c.counters.JournalErrors++
			c.mu.Unlock()
			mJournalErrors.Inc()
			return CompleteResponse{Accepted: true, Done: done}, fmt.Errorf("dist: journal: %w", err)
		}
	}
	return CompleteResponse{Accepted: true, Done: done}, nil
}

// Done is closed once every task has settled.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Fingerprint returns the campaign fingerprint workers verify against.
func (c *Coordinator) Fingerprint() string { return c.fingerprint }

// ID returns the campaign's registry ID.
func (c *Coordinator) ID() string { return c.id }

// Tenant returns the owning tenant.
func (c *Coordinator) Tenant() string { return c.tenant }

// Cancel closes the campaign: outstanding leases are dropped, further claims
// answer Done and further completions are dropped as duplicates. Settled
// results are kept — the partial report stays available — but the Done
// channel is not closed: cancellation is not completion.
func (c *Coordinator) Cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancelled {
		return
	}
	c.cancelled = true
	for id, l := range c.leases {
		if w := c.workers[l.worker]; w != nil {
			delete(w.leased, id)
		}
		delete(c.leases, id)
	}
	c.appendEventLocked(Event{Type: "cancelled"})
}

// State reports the campaign lifecycle state: StateOpen while tasks remain,
// StateDone once every task settled, StateCancelled after Cancel.
func (c *Coordinator) State() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked()
}

func (c *Coordinator) stateLocked() string {
	switch {
	case c.cancelled:
		return StateCancelled
	case c.doneN == len(c.tasks):
		return StateDone
	default:
		return StateOpen
	}
}

// LeasedCount reports how many tasks the campaign currently has leased, for
// per-tenant quota accounting. Lapsed leases are reaped first so a stalled
// worker does not pin its tenant at quota.
func (c *Coordinator) LeasedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.now())
	return len(c.leases)
}

// EventsSince returns the campaign events with Seq > after, plus a channel
// closed the next time any event is appended — the long-poll/SSE wait
// primitive. An empty slice with an open channel means "nothing new yet".
func (c *Coordinator) EventsSince(after int) ([]Event, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.eventsCh
	if after < 0 {
		after = 0
	}
	if after >= len(c.events) {
		return nil, ch
	}
	out := make([]Event, len(c.events)-after)
	copy(out, c.events[after:])
	return out, ch
}

// Info snapshots the campaign for the registry listing.
func (c *Coordinator) Info() CampaignInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CampaignInfo{
		ID:          c.id,
		Tenant:      c.tenant,
		Priority:    c.priority,
		Fingerprint: c.fingerprint,
		State:       c.stateLocked(),
		Crossval:    c.crossval(),
		Done:        c.doneN,
		Total:       len(c.tasks),
		FromCache:   int(c.counters.TasksFromCache),
		Verdict:     c.verdictLocked(),
	}
}

// SpecResponse returns the campaign document handed to workers.
func (c *Coordinator) SpecResponse() SpecResponse {
	return SpecResponse{Spec: c.doc, Fingerprint: c.fingerprint, Lease: c.leaseDur}
}

// Status snapshots the fleet.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.reapLocked(now)
	st := StatusResponse{
		ID:       c.id,
		Tenant:   c.tenant,
		Priority: c.priority,
		State:    c.stateLocked(),
		Total:    len(c.tasks),
		Done:     c.doneN,
		Leased:   len(c.leases),
		Counters: c.counters,
	}
	st.Queued = st.Total - st.Done - st.Leased
	for _, rep := range c.results {
		if rep == nil {
			continue
		}
		st.Findings += len(rep.Findings)
		st.States += rep.StatesExplored
	}
	if c.crossval() {
		// Findings in crossval mode are pooled mismatches; States the pooled
		// symbolic exploration size.
		for _, prs := range c.xresults {
			for i := range prs {
				st.Findings += len(prs[i].Mismatches)
				st.States += prs[i].Sym.States
			}
		}
	}
	st.Verdict = c.verdictLocked()
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		leased := make([]int, 0, len(w.leased))
		for t := range w.leased {
			leased = append(leased, t)
		}
		sort.Ints(leased)
		age := now.Sub(w.lastSeen)
		st.Workers = append(st.Workers, WorkerStatus{
			ID:        id,
			LastSeen:  age,
			Live:      age <= c.leaseDur,
			Leased:    leased,
			Completed: w.completed,
		})
	}
	return st
}

// verdictLocked pools the verdict over the tasks done so far. For a crossval
// campaign "refuted" means a conclusive SymbolicMiss pooled: the symbolic
// engine's soundness claim is what the campaign checks.
func (c *Coordinator) verdictLocked() string {
	if c.cancelled && c.doneN < len(c.tasks) {
		return StateCancelled
	}
	if c.crossval() {
		for _, prs := range c.xresults {
			for i := range prs {
				for _, m := range prs[i].Mismatches {
					if m.Class == crossval.SymbolicMiss && !m.Inconclusive {
						return checker.VerdictRefuted.String()
					}
				}
			}
		}
		if c.doneN < len(c.tasks) {
			return "open"
		}
		for _, rep := range c.results {
			if !rep.Completed {
				return checker.VerdictInconclusive.String()
			}
		}
		return checker.VerdictProven.String()
	}
	for _, rep := range c.results {
		if rep != nil && len(rep.Findings) > 0 {
			return checker.VerdictRefuted.String()
		}
	}
	if c.doneN < len(c.tasks) {
		return "open"
	}
	for _, rep := range c.results {
		if !rep.Completed || rep.Panics > 0 {
			return checker.VerdictInconclusive.String()
		}
	}
	return checker.VerdictProven.String()
}

// Report pools the campaign. Settled tasks carry their folded reports; a
// task still open appears Interrupted with empty tallies, exactly how
// cluster.RunCtx reports tasks a cancelled study never started. When
// Complete is true the report is identical to a single-process cluster.Run
// over the same spec and split.
func (c *Coordinator) Report() MergedReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := MergedReport{Complete: c.doneN == len(c.tasks)}
	out.Tasks = make([]cluster.TaskReport, len(c.tasks))
	for id := range c.tasks {
		if rep := c.results[id]; rep != nil {
			out.Tasks[id] = *rep
			continue
		}
		out.Tasks[id] = cluster.TaskReport{
			TaskID:      c.tasks[id].ID,
			Interrupted: true,
			Outcomes:    map[symexec.Outcome]int{},
		}
	}
	out.Summary = cluster.Summarize(out.Tasks)
	if c.crossval() {
		var pooled []crossval.PointReport
		for _, prs := range c.xresults {
			pooled = append(pooled, prs...)
		}
		xrep := crossval.Merge(c.xspec, pooled)
		xrep.Interrupted = !out.Complete
		out.Crossval = xrep
	}
	return out
}
