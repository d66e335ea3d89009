package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"symplfied/internal/obs"
	"symplfied/internal/summary"
)

var (
	mCampaignsOpen = obs.Default().Gauge(obs.MDistCampaignsOpen)
	mCampaignsDone = obs.Default().Counter(obs.MDistCampaignsDone)
)

// ErrQuota is returned (wrapped) when a tenant is at its campaign quota; the
// HTTP layer maps it to 429 Too Many Requests.
var ErrQuota = errors.New("dist: tenant quota exceeded")

// ErrNoCampaign is returned when a campaign ID resolves to nothing.
var ErrNoCampaign = errors.New("dist: no such campaign")

// Quotas bounds one tenant's share of the service. Zero values mean
// unlimited.
type Quotas struct {
	// MaxOpenCampaigns caps how many campaigns a tenant may have open
	// (queued or running) at once; creates beyond it are refused.
	MaxOpenCampaigns int
	// MaxLeasedTasks caps how many tasks a tenant's campaigns may hold
	// leased fleet-wide at once; the fleet dispatcher skips the tenant's
	// campaigns while at quota.
	MaxLeasedTasks int
}

// RegistryConfig configures a campaign registry.
type RegistryConfig struct {
	// Store is the durable campaign store. Nil uses an in-memory store (the
	// service forgets everything on exit).
	Store Store
	// Lease is the task lease duration for every campaign (0: DefaultLease).
	Lease time.Duration
	// Quotas applies per tenant.
	Quotas Quotas
	// SummaryCache is the fleet-shared function-summary cache served over
	// /summary/get|put; nil installs a default in-memory cache.
	SummaryCache *summary.Cache
	// Cache is the fleet-wide task result cache; nil installs a fresh one.
	// It is shared across every campaign and warmed from the store's
	// journaled results on resume.
	Cache *ResultCache
	// Now is the clock, injectable for tests (nil: time.Now).
	Now func() time.Time
}

// tombstone is a cancelled campaign known only from the store: listed, never
// resumed.
type tombstone struct{ rec CampaignRecord }

// Registry is the multi-tenant campaign service core: it owns every
// campaign's coordinator, mints campaign IDs, dispatches fleet-level claims
// across campaigns by priority, enforces per-tenant quotas, and keeps the
// durable store in sync with campaign lifecycle. Service wraps it in the
// versioned HTTP API.
//
// Lock order: Registry.mu strictly outside any Coordinator.mu — registry
// methods snapshot under their own lock and call into coordinators after
// releasing it (or while holding only r.mu, never both except r→c).
type Registry struct {
	store     Store
	lease     time.Duration
	quotas    Quotas
	summaries *summary.Cache
	cache     *ResultCache
	now       func() time.Time

	mu        sync.Mutex
	campaigns map[string]*Coordinator
	tombs     map[string]tombstone
	recs      map[string]CampaignRecord // last record written to the store
	order     []string                  // creation order (live + tombstones)
	seq       int
	// served counts fleet claims per campaign for round-robin among equal
	// priorities: the least-recently-served open campaign goes first.
	served map[string]int64
	tick   int64
}

// NewRegistry opens the registry over its store, resuming every non-cancelled
// campaign: each is re-lowered from its stored document, its journaled
// results are replayed (and published to the fleet result cache), and its
// result log is re-attached for further appends.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	r := &Registry{
		store:     cfg.Store,
		lease:     cfg.Lease,
		quotas:    cfg.Quotas,
		summaries: cfg.SummaryCache,
		cache:     cfg.Cache,
		now:       cfg.Now,
		campaigns: make(map[string]*Coordinator),
		tombs:     make(map[string]tombstone),
		recs:      make(map[string]CampaignRecord),
		served:    make(map[string]int64),
	}
	if r.store == nil {
		r.store = NewMemStore()
	}
	if r.summaries == nil {
		r.summaries = summary.NewCache(0, nil)
	}
	if r.cache == nil {
		r.cache = NewResultCache()
	}
	recs, err := r.store.Campaigns()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.Seq > r.seq {
			r.seq = rec.Seq
		}
		r.recs[rec.ID] = rec
		if rec.State == StateCancelled {
			r.tombs[rec.ID] = tombstone{rec: rec}
			r.order = append(r.order, rec.ID)
			continue
		}
		c, err := r.resume(rec)
		if err != nil {
			return nil, fmt.Errorf("dist: resume campaign %s: %w", rec.ID, err)
		}
		r.campaigns[rec.ID] = c
		r.order = append(r.order, rec.ID)
	}
	r.refreshOpenGauge()
	return r, nil
}

// resume rebuilds one stored campaign: lower, replay, re-attach the log.
func (r *Registry) resume(rec CampaignRecord) (*Coordinator, error) {
	c, err := newCoordinator(rec.Doc, coordOptions{
		id:       rec.ID,
		tenant:   rec.Tenant,
		priority: rec.Priority,
		lease:    r.lease,
		now:      r.now,
		cache:    r.cache,
	})
	if err != nil {
		return nil, err
	}
	if c.fingerprint != rec.Fingerprint {
		return nil, fmt.Errorf("stored document lowers to fingerprint %s, record says %s",
			c.fingerprint, rec.Fingerprint)
	}
	entries, err := r.store.Results(rec.ID)
	if err != nil {
		return nil, err
	}
	c.restore(entries)
	c.persist = r.persistFn(rec.ID)
	return c, nil
}

// persistFn routes one campaign's settled results into the shared store.
func (r *Registry) persistFn(id string) func(key string, payload any) error {
	return func(key string, payload any) error {
		return r.store.AppendResult(id, key, payload)
	}
}

func normTenant(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// Create registers a new campaign for tenant at priority. The document is
// lowered exactly as every worker lowers it, the record is
// written to the store before the campaign is published, and the campaign ID
// — a fingerprint prefix plus a creation sequence number — is returned via
// the coordinator. Re-submitting an identical document creates a distinct
// campaign; its tasks settle from the fleet result cache at claim time.
func (r *Registry) Create(doc SpecDoc, tenant string, priority int) (*Coordinator, error) {
	tenant = normTenant(tenant)
	c, err := newCoordinator(doc, coordOptions{
		tenant:   tenant,
		priority: priority,
		lease:    r.lease,
		now:      r.now,
		cache:    r.cache,
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.quotas.MaxOpenCampaigns > 0 {
		open := 0
		for _, co := range r.campaigns {
			if co.Tenant() == tenant && co.State() == StateOpen {
				open++
			}
		}
		if open >= r.quotas.MaxOpenCampaigns {
			r.mu.Unlock()
			obs.Default().Counter(obs.MDistQuotaDenials, obs.L("tenant", tenant)).Inc()
			return nil, fmt.Errorf("%w: tenant %q has %d open campaigns (max %d)",
				ErrQuota, tenant, open, r.quotas.MaxOpenCampaigns)
		}
	}
	r.seq++
	id := fmt.Sprintf("%s-%d", c.fingerprint[:12], r.seq)
	c.id = id
	rec := CampaignRecord{
		ID:          id,
		Tenant:      tenant,
		Priority:    priority,
		State:       StateOpen,
		Doc:         doc,
		Fingerprint: c.fingerprint,
		Kind:        c.JournalKind(),
		Seq:         r.seq,
	}
	if err := r.store.PutCampaign(rec); err != nil {
		r.seq--
		r.mu.Unlock()
		return nil, err
	}
	c.persist = r.persistFn(id)
	r.campaigns[id] = c
	r.recs[id] = rec
	r.order = append(r.order, id)
	r.refreshOpenGaugeLocked()
	r.mu.Unlock()
	return c, nil
}

// Get resolves a live campaign by ID.
func (r *Registry) Get(id string) (*Coordinator, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.campaigns[id]
	return c, ok
}

// Cancel cancels a live campaign and records the state durably. Cancelling
// an already-cancelled campaign is a no-op; an unknown ID is ErrNoCampaign.
func (r *Registry) Cancel(id string) error {
	r.mu.Lock()
	c, ok := r.campaigns[id]
	r.mu.Unlock()
	if !ok {
		r.mu.Lock()
		_, tomb := r.tombs[id]
		r.mu.Unlock()
		if tomb {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNoCampaign, id)
	}
	c.Cancel()
	return r.SyncState(id)
}

// SyncState writes a campaign's current lifecycle state through to the
// store when it changed. The HTTP layer calls it whenever a completion or a
// cache settle may have finished a campaign.
func (r *Registry) SyncState(id string) error {
	r.mu.Lock()
	c, ok := r.campaigns[id]
	rec, haveRec := r.recs[id]
	r.mu.Unlock()
	if !ok || !haveRec {
		return nil
	}
	state := c.State()
	if rec.State == state {
		return nil
	}
	rec.State = state
	if err := r.store.PutCampaign(rec); err != nil {
		return err
	}
	r.mu.Lock()
	r.recs[id] = rec
	r.refreshOpenGaugeLocked()
	r.mu.Unlock()
	if state == StateDone {
		mCampaignsDone.Inc()
	}
	return nil
}

func (r *Registry) refreshOpenGauge() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshOpenGaugeLocked()
}

func (r *Registry) refreshOpenGaugeLocked() {
	open := int64(0)
	for _, c := range r.campaigns {
		if c.State() == StateOpen {
			open++
		}
	}
	mCampaignsOpen.Set(open)
}

// dispatchOrder snapshots the live campaigns in fleet dispatch order:
// open campaigns by (priority desc, least recently served, creation order),
// then settled and cancelled ones in creation order.
func (r *Registry) dispatchOrder() []*Coordinator {
	r.mu.Lock()
	type ranked struct {
		c      *Coordinator
		seqIdx int
		served int64
	}
	var live []ranked
	for i, id := range r.order {
		if c, ok := r.campaigns[id]; ok {
			live = append(live, ranked{c: c, seqIdx: i, served: r.served[id]})
		}
	}
	r.mu.Unlock()

	states := make(map[*Coordinator]string, len(live))
	prios := make(map[*Coordinator]int, len(live))
	for _, l := range live {
		states[l.c] = l.c.State()
		prios[l.c] = l.c.priority
	}
	sort.SliceStable(live, func(i, j int) bool {
		oi, oj := states[live[i].c] == StateOpen, states[live[j].c] == StateOpen
		if oi != oj {
			return oi
		}
		if !oi {
			return live[i].seqIdx < live[j].seqIdx
		}
		if prios[live[i].c] != prios[live[j].c] {
			return prios[live[i].c] > prios[live[j].c]
		}
		if live[i].served != live[j].served {
			return live[i].served < live[j].served
		}
		return live[i].seqIdx < live[j].seqIdx
	})
	out := make([]*Coordinator, len(live))
	for i, l := range live {
		out[i] = l.c
	}
	return out
}

// FleetClaim leases a task from the highest-priority open campaign whose
// tenant is under its leased-tasks quota, round-robining among equal
// priorities. Done is reported only when the service has campaigns and none
// is open — a fleet may be started before its first submission.
func (r *Registry) FleetClaim(worker string) FleetClaimResponse {
	cands := r.dispatchOrder()

	// Per-tenant leased totals for quota checks, computed once per claim;
	// the per-tenant gauge rides along.
	leased := make(map[string]int)
	for _, c := range cands {
		if c.State() == StateOpen {
			leased[c.Tenant()] += c.LeasedCount()
		}
	}
	for tenant, n := range leased {
		obs.Default().Gauge(obs.MDistTenantLeased, obs.L("tenant", tenant)).Set(int64(n))
	}

	open := 0
	for _, c := range cands {
		if c.State() != StateOpen {
			continue
		}
		open++
		if r.quotas.MaxLeasedTasks > 0 && leased[c.Tenant()] >= r.quotas.MaxLeasedTasks {
			obs.Default().Counter(obs.MDistQuotaDenials, obs.L("tenant", c.Tenant())).Inc()
			continue
		}
		resp := c.Claim(worker)
		if resp.Done {
			// Settled (possibly just now, from the result cache) or
			// cancelled under us: record it and move on.
			open--
			_ = r.SyncState(c.ID())
			continue
		}
		if resp.Task == nil {
			continue // all of this campaign's remaining tasks are in flight
		}
		r.mu.Lock()
		r.tick++
		r.served[c.ID()] = r.tick
		r.mu.Unlock()
		return FleetClaimResponse{
			Campaign:      c.ID(),
			Task:          resp.Task,
			Lease:         resp.Lease,
			OpenCampaigns: open,
		}
	}
	return FleetClaimResponse{
		Done:          len(cands) > 0 && open == 0,
		OpenCampaigns: open,
	}
}

// List snapshots every campaign — live and tombstoned — in dispatch order.
func (r *Registry) List() CampaignList {
	var out CampaignList
	for _, c := range r.dispatchOrder() {
		out.Campaigns = append(out.Campaigns, c.Info())
	}
	r.mu.Lock()
	for _, id := range r.order {
		if t, ok := r.tombs[id]; ok {
			out.Campaigns = append(out.Campaigns, CampaignInfo{
				ID:          t.rec.ID,
				Tenant:      t.rec.Tenant,
				Priority:    t.rec.Priority,
				Fingerprint: t.rec.Fingerprint,
				State:       StateCancelled,
				Crossval:    t.rec.Doc.Crossval,
			})
		}
	}
	r.mu.Unlock()
	return out
}

// Cache exposes the fleet result cache (tests, status reporting).
func (r *Registry) Cache() *ResultCache { return r.cache }

// SummaryCache exposes the fleet-shared function-summary cache.
func (r *Registry) SummaryCache() *summary.Cache { return r.summaries }

// Drained reports whether the service has campaigns and every one is done or
// cancelled. An empty registry is not drained: it is waiting for work.
func (r *Registry) Drained() bool {
	r.mu.Lock()
	n := len(r.campaigns) + len(r.tombs)
	var live []*Coordinator
	for _, c := range r.campaigns {
		live = append(live, c)
	}
	r.mu.Unlock()
	if n == 0 {
		return false
	}
	for _, c := range live {
		if c.State() == StateOpen {
			return false
		}
	}
	return true
}

// WaitDrained blocks until Drained or ctx ends.
func (r *Registry) WaitDrained(ctx context.Context) error {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		if r.Drained() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Close detaches every campaign and closes the store.
func (r *Registry) Close() error {
	r.mu.Lock()
	for _, c := range r.campaigns {
		c.mu.Lock()
		c.persist = nil
		c.mu.Unlock()
	}
	store := r.store
	r.mu.Unlock()
	return store.Close()
}
