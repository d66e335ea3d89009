package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/cluster"
	"symplfied/internal/dist"
	"symplfied/internal/isa"
	"symplfied/internal/obs"
)

// fleetSession is fleet-mixed: the campaign service (a dist.Registry over a
// DiskStore, served over loopback HTTP) with two fleet workers. A "bulk"
// tenant keeps a standing backlog of replace studies at priority 0, so the
// workers are never idle; a "ci" tenant submits small tcas campaigns at priority 1
// on an open loop, every fourth one a resubmission the result cache
// answers. The op is a ci campaign, timed from when it was due to when its
// done event was appended.
type fleetSession struct {
	cfg       config
	sh        shape
	interval  time.Duration
	ciDocs    []dist.SpecDoc
	warmDoc   dist.SpecDoc
	probeProg *isa.Program
	probeIn   []int64

	dir    string
	reg    *dist.Registry
	srv    *http.Server
	served chan error
	url    string
	tracer atomic.Pointer[tracer]
	ci     *timedTransport // the load generator's connections
	client *dist.Client
	ids    []string // every campaign created, in order

	// the bulk tenant's standing backlog
	bulkOpen              int
	bulkTasks, bulkBudget int
	replaceProg           *isa.Program
	nextBulk              int
	bulkIDs               []string

	workerStop context.CancelFunc
	workerWG   sync.WaitGroup
	workerErrs []error
	workerRTs  []*timedTransport

	// timed phase results
	ops                     []ciOp
	cacheHits, cacheLookups int64
}

// ciOp is one ci campaign of the timed phase.
type ciOp struct {
	doc         int // index into ciDocs
	id          string
	due         time.Time
	late        time.Duration
	firstSettle time.Duration
	done        time.Duration // due to done event; 0 when it never settled
	err         error
}

// ciResubmitEvery: ci campaign i with i%ciResubmitEvery == ciResubmitEvery-1
// resubmits the document of campaign i-(ciResubmitEvery-1), the expensive
// stratum, which has settled by then, so the result cache answers it.
const ciResubmitEvery = tcasCycle

func setupFleet(ctx context.Context, cfg config) (session, error) {
	s := &fleetSession{
		cfg:      cfg,
		sh:       shape{ops: 200, prefix: 2 * ciResubmitEvery, cycle: ciResubmitEvery},
		interval: 80 * time.Millisecond,
	}
	// ci: 50 tasks, each with 75k states and 30 findings, which per
	// injection is the same allowance as 150 tasks of 25k and 10. bulk:
	// tasks of 20k states. Each ci campaign waits for the workers' bulk tasks
	// in flight, and every ci task costs a claim and a completion round trip,
	// so bigger bulk tasks or more ci tasks make the ci latencies swing more
	// than the host's speed does.
	ciTasks, ciBudget, ciMaxFindings := 50, 75_000, 30
	s.bulkOpen, s.bulkTasks, s.bulkBudget = 30, 312, 20_000
	if cfg.tiny {
		s.sh = shape{ops: 4, prefix: 4, cycle: ciResubmitEvery}
		s.interval = 20 * time.Millisecond
		ciTasks, ciBudget, ciMaxFindings = 12, 5_000, 10
		s.bulkOpen, s.bulkTasks, s.bulkBudget = 4, 24, 5_000
	}
	prog := tcas.Program()
	ciDoc := func(in tcas.Inputs, name string) (dist.SpecDoc, error) {
		if err := checkTcasGolden(prog, in); err != nil {
			return dist.SpecDoc{}, fmt.Errorf("%s: %w", name, err)
		}
		return dist.SpecDoc{
			Name: name, App: "tcas", Input: in.Slice(), Class: "register", Goal: "wrong-advisory",
			Watchdog: 4_000, Tasks: ciTasks, TaskStateBudget: ciBudget, MaxFindingsPerTask: ciMaxFindings,
		}, nil
	}
	for i := 0; i < s.sh.ops; i++ {
		if i%ciResubmitEvery == ciResubmitEvery-1 {
			s.ciDocs = append(s.ciDocs, s.ciDocs[i-(ciResubmitEvery-1)])
			continue
		}
		in := tcasInput(cfg.seed, "ci", i)
		d, err := ciDoc(in, fmt.Sprintf("ci-%d", i))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			s.probeProg, s.probeIn = prog, in.Slice()
		}
		s.ciDocs = append(s.ciDocs, d)
	}
	var err error
	if s.warmDoc, err = ciDoc(tcasInput(cfg.seed, "warm-ci", 1), "warm"); err != nil {
		return nil, err
	}
	s.replaceProg = replace.Program()

	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.topUpBulk(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// topUpBulk submits the bulk tenant's next seeded replace campaigns until
// bulkOpen of them are open. The backlog never drains, so the workers always
// have priority-0 work waiting and never see the fleet drained mid-run,
// however fast they get.
func (s *fleetSession) topUpBulk(ctx context.Context) error {
	open := 0
	for _, id := range s.bulkIDs {
		if c, ok := s.reg.Get(id); ok && c.State() == dist.StateOpen {
			open++
		}
	}
	for ; open < s.bulkOpen; open++ {
		c := replaceInput(s.cfg.seed, "bulk", s.nextBulk)
		if _, err := replaceGolden(s.replaceProg, c); err != nil {
			return fmt.Errorf("bulk %d %+v: %w", s.nextBulk, c, err)
		}
		doc := dist.SpecDoc{
			Name: fmt.Sprintf("bulk-%d", s.nextBulk), App: "replace", Input: c.input(), Class: "register", Goal: "incorrect-output",
			Watchdog: 120_000, Tasks: s.bulkTasks, TaskStateBudget: s.bulkBudget, MaxFindingsPerTask: 10,
		}
		s.nextBulk++
		id, err := s.create(ctx, doc, "bulk", 0)
		if err != nil {
			return fmt.Errorf("submit bulk backlog: %w", err)
		}
		s.bulkIDs = append(s.bulkIDs, id)
	}
	return nil
}

// start opens the store under a fresh temporary directory and serves the
// registry on a loopback port.
func (s *fleetSession) start() error {
	var err error
	if s.dir, err = os.MkdirTemp("", "symbench-fleet-"); err != nil {
		return err
	}
	disk, err := dist.NewDiskStore(s.dir)
	if err != nil {
		return err
	}
	store := &timedStore{Store: disk, tracer: &s.tracer}
	if s.reg, err = dist.NewRegistry(dist.RegistryConfig{Store: store}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: dist.NewService(s.reg).Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	// The load generator holds at most two connections to the service.
	s.ci = newTimedTransport(&s.tracer, 2)
	s.client = dist.NewClient(s.url, &http.Client{Transport: s.ci})
	return nil
}

func (s *fleetSession) create(ctx context.Context, doc dist.SpecDoc, tenant string, priority int) (string, error) {
	info, err := s.client.Create(ctx, dist.CreateCampaignRequest{Tenant: tenant, Priority: priority, Doc: doc})
	if err != nil {
		return "", err
	}
	s.ids = append(s.ids, info.ID)
	return info.ID, nil
}

// warm starts the two workers and runs one ci campaign from the warm-up
// stream to completion.
func (s *fleetSession) warm(ctx context.Context) error {
	wctx, stop := context.WithCancel(ctx)
	s.workerStop = stop
	s.workerErrs = make([]error, 2)
	for w := 0; w < 2; w++ {
		rt := newTimedTransport(&s.tracer, 0)
		rt.worker = true
		s.workerRTs = append(s.workerRTs, rt)
		s.workerWG.Add(1)
		go func(w int) {
			defer s.workerWG.Done()
			_, err := dist.RunWorker(wctx, dist.WorkerConfig{
				Coordinator: s.url,
				ID:          fmt.Sprintf("w%d", w+1),
				Client:      &http.Client{Transport: rt},
				Parallelism: 1,
				Poll:        20 * time.Millisecond,
			})
			if err == nil && wctx.Err() == nil {
				err = fmt.Errorf("worker w%d exited before the run ended: the fleet drained", w+1)
			}
			s.workerErrs[w] = err
		}(w)
	}
	id, err := s.create(ctx, s.warmDoc, "ci", 1)
	if err != nil {
		return err
	}
	c, ok := s.reg.Get(id)
	if !ok {
		return fmt.Errorf("warm-up campaign %s not in the registry", id)
	}
	if _, _, ok := waitDone(ctx, c, time.Now(), 30*time.Second); !ok {
		return fmt.Errorf("warm-up campaign did not settle")
	}
	return nil
}

// run is the open loop: ci campaign i is due at start + i*interval whatever
// happened to the ones before it.
func (s *fleetSession) run(ctx context.Context, lim limits, tr *tracer) (phase, error) {
	s.tracer.Store(tr)
	n := s.sh.ops
	if lim.ops > 0 && lim.ops < n {
		n = lim.ops
	}
	explored0 := s.workerExplored()
	hits0, misses0 := s.reg.Cache().Stats()
	leasesLost := obs.Default().Counter(obs.MWorkerLeasesLost)
	lost0 := leasesLost.Value()
	s.ops = nil

	var wg sync.WaitGroup
	var mu sync.Mutex
	lastDone := time.Time{}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * s.interval)
		if lim.seconds > 0 && i >= s.sh.prefix && i%s.sh.cycle == 0 && due.Sub(start).Seconds() >= lim.seconds {
			break
		}
		if err := s.topUpBulk(ctx); err != nil {
			return phase{}, err
		}
		if !sleepUntil(ctx, due) {
			return phase{}, ctx.Err()
		}
		op := ciOp{doc: i, due: due, late: time.Since(due)}
		octx, sp := tr.start(ctx, "op")
		op.id, op.err = s.create(octx, s.ciDocs[i], "ci", 1)
		c, ok := s.reg.Get(op.id)
		if op.err == nil && !ok {
			op.err = fmt.Errorf("campaign %s not in the registry", op.id)
		}
		mu.Lock()
		s.ops = append(s.ops, op)
		k := len(s.ops) - 1
		mu.Unlock()
		if op.err != nil {
			sp.end()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			first, done, ok := waitDone(ctx, c, due, 30*time.Second)
			sp.end()
			mu.Lock()
			defer mu.Unlock()
			s.ops[k].firstSettle = first
			if ok {
				s.ops[k].done = done
				if end := due.Add(done); end.After(lastDone) {
					lastDone = end
				}
			}
		}()
	}
	wg.Wait()
	if lastDone.IsZero() {
		lastDone = time.Now()
	}
	ph := phase{wall: lastDone.Sub(start)}
	ph.explored = s.workerExplored() - explored0
	hits, misses := s.reg.Cache().Stats()
	s.cacheHits, s.cacheLookups = hits-hits0, hits-hits0+misses-misses0
	lost := leasesLost.Value() - lost0
	s.stopWorkers()

	for k, op := range s.ops {
		t := s.ciTally(op)
		ph.ops++
		if t.Failures > 0 {
			ph.failed++
		}
		if op.done > 0 {
			ph.latMS = append(ph.latMS, ms(op.done))
		}
		ph.total.add(t)
		if k < s.sh.prefix {
			ph.prefix.add(t)
			ph.prefixOps++
		}
	}
	for _, err := range s.workerErrs {
		// Stopping the workers cancels whatever call they were in.
		if err != nil && !errors.Is(err, context.Canceled) {
			ph.failed++
		}
	}
	ph.failed += int(lost)
	return ph, nil
}

// waitDone follows campaign c's event stream until its done event and
// returns how long after due the first task and the campaign settled.
func waitDone(ctx context.Context, c *dist.Coordinator, due time.Time, limit time.Duration) (first, done time.Duration, ok bool) {
	timer := time.NewTimer(limit)
	defer timer.Stop()
	after := 0
	for {
		events, more := c.EventsSince(after)
		for _, ev := range events {
			after = ev.Seq
			switch ev.Type {
			case "task":
				if first == 0 {
					first = time.Since(due)
				}
			case "done":
				return first, time.Since(due), true
			case "cancelled":
				return first, 0, false
			}
		}
		select {
		case <-more:
		case <-timer.C:
			return first, 0, false
		case <-ctx.Done():
			return first, 0, false
		}
	}
}

// ciTally is a ci campaign's deterministic tally from its merged report;
// a campaign that never settled or had a failing task counts as failed.
func (s *fleetSession) ciTally(op ciOp) tally {
	if op.err != nil || op.done == 0 {
		return tally{Failures: 1}
	}
	c, ok := s.reg.Get(op.id)
	if !ok {
		return tally{Failures: 1}
	}
	rep := c.Report()
	var t tally
	for _, task := range rep.Tasks {
		t.Attempted++
		if task.Completed {
			t.Decided++
		}
		if task.Failure != "" || task.Panics > 0 || task.Interrupted {
			t.Failures++
		}
	}
	sum := rep.Summary
	t.Injections = int64(sum.TotalInjections)
	t.States = int64(sum.TotalStates)
	t.Findings = int64(len(sum.Findings))
	for o, n := range sum.Outcomes {
		t.outcome(o.String(), int64(n))
	}
	return t
}

// workerExplored counts the injections workers explored to a verdict across
// every campaign so far; tasks the result cache settled are not counted.
func (s *fleetSession) workerExplored() int64 {
	type snap struct {
		c      *dist.Coordinator
		events []dist.Event
	}
	// Read every event stream first, quickly, then pool the reports, so
	// the count is of one moment.
	var snaps []snap
	for _, id := range s.ids {
		if c, ok := s.reg.Get(id); ok {
			evs, _ := c.EventsSince(0)
			snaps = append(snaps, snap{c, evs})
		}
	}
	var n int64
	for _, sn := range snaps {
		rep := sn.c.Report()
		for _, ev := range sn.events {
			if ev.Type == "task" && ev.Worker != "" {
				n += int64(rep.Tasks[ev.Task].InjectionsDone)
			}
		}
	}
	return n
}

func (s *fleetSession) stopWorkers() {
	if s.workerStop == nil {
		return
	}
	s.workerStop()
	s.workerWG.Wait()
	s.workerStop = nil
}

// check: every ci campaign settled, and three sampled ci campaigns' merged
// reports — one expensive, one cheap, one answered by the result cache —
// are byte-identical to a single-process cluster.RunCtx over the same
// document.
func (s *fleetSession) check(ctx context.Context, ph phase) []string {
	var bad []string
	for _, op := range s.ops {
		if op.err != nil {
			bad = append(bad, fmt.Sprintf("ci campaign %d: %v", op.doc, op.err))
		} else if op.done == 0 {
			bad = append(bad, fmt.Sprintf("ci campaign %d (%s) never settled", op.doc, op.id))
		}
	}
	for _, k := range []int{0, 1, ciResubmitEvery - 1} {
		if k >= len(s.ops) || s.ops[k].done == 0 {
			continue
		}
		if err := s.compareReport(ctx, s.ops[k]); err != nil {
			bad = append(bad, fmt.Sprintf("ci campaign %d: %v", k, err))
		}
	}
	return bad
}

func (s *fleetSession) compareReport(ctx context.Context, op ciOp) error {
	doc := s.ciDocs[op.doc]
	spec, err := doc.Build()
	if err != nil {
		return err
	}
	reports := cluster.RunCtx(ctx, spec, cluster.Split(spec.Injections, doc.Tasks), cluster.Config{
		Workers:            2,
		TaskStateBudget:    doc.TaskStateBudget,
		MaxFindingsPerTask: doc.MaxFindingsPerTask,
	})
	want, err := json.Marshal(dist.MergedReport{Complete: true, Tasks: reports, Summary: cluster.Summarize(reports)})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+dist.V1CampaignPath(op.id, "report"), nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{Transport: s.ci}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		return fmt.Errorf("fleet report (%d bytes) differs from the single-process cluster.RunCtx report (%d bytes)", len(got), len(want))
	}
	return nil
}

func (s *fleetSession) layers(ph phase, sp *spanIndex, m metrics) {
	pct := func(name, span string, p float64) {
		d := sp.durationsMS(span)
		m.set(name, percentile(d, p), "ms", len(d))
	}
	pct("dist.claim_p50_ms", "http POST /v1/claim", 50)
	pct("dist.claim_p90_ms", "http POST /v1/claim", 90)
	pct("dist.complete_p50_ms", "http POST /v1/campaigns/{id}/complete", 50)
	pct("dist.complete_p90_ms", "http POST /v1/campaigns/{id}/complete", 90)
	pct("dist.create_p50_ms", "http POST /v1/campaigns", 50)
	appends := sp.durationsMS("dist.Store.AppendResult")
	m.set("dist.store_append_p50_us", percentile(appends, 50)*1000, "us", len(appends))
	m.set("dist.store_append_p99_us", percentile(appends, 99)*1000, "us", len(appends))
	m.set("dist.store_appends", float64(len(appends)), "count", 1)

	var claims, empty, heartbeats int
	var kb []float64
	var sweep time.Duration
	for _, rt := range append([]*timedTransport{s.ci}, s.workerRTs...) {
		rt.mu.Lock()
		claims += rt.claims
		empty += rt.emptyClaims
		heartbeats += rt.heartbeats
		kb = append(kb, rt.completeKB...)
		sweep += rt.sweep
		rt.mu.Unlock()
	}
	kb = sortedCopy(kb)
	m.set("dist.complete_kb_p50", percentile(kb, 50), "KB", len(kb))
	m.set("dist.empty_claim_frac", float64(empty)/float64(max(claims, 1)), "ratio", claims)
	m.set("dist.heartbeats", float64(heartbeats), "count", 1)
	m.set("dist.worker_sweep_frac", sweep.Seconds()/(float64(len(s.workerRTs))*ph.wall.Seconds()), "ratio", len(s.workerRTs))
	m.set("dist.result_cache_hit_frac", float64(s.cacheHits)/float64(max(s.cacheLookups, 1)), "ratio", int(s.cacheLookups))
	var reassigned, dups int64
	for _, id := range s.ids {
		if c, ok := s.reg.Get(id); ok {
			st := c.Status()
			reassigned += st.Counters.TasksReassigned
			dups += st.Counters.DuplicateCompletions
		}
	}
	m.set("dist.tasks_reassigned", float64(reassigned), "count", 1)
	m.set("dist.duplicate_completions", float64(dups), "count", 1)
	var first, late []float64
	for _, op := range s.ops {
		if op.firstSettle > 0 {
			first = append(first, ms(op.firstSettle))
		}
		late = append(late, ms(op.late))
	}
	first, late = sortedCopy(first), sortedCopy(late)
	m.set("dist.first_settle_ms", percentile(first, 50), "ms", len(first))
	m.set("loadgen.late_p99_ms", percentile(late, 99), "ms", len(late))
}

func (s *fleetSession) probeInput() (*isa.Program, []int64) { return s.probeProg, s.probeIn }

// close stops the workers and the server and removes the store directory.
func (s *fleetSession) close() error {
	s.stopWorkers()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.srv = nil
	}
	if s.reg != nil {
		errs = append(errs, s.reg.Close())
		s.reg = nil
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
		s.dir = ""
	}
	return errors.Join(errs...)
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// timedStore records a span around every store write.
type timedStore struct {
	dist.Store
	tracer *atomic.Pointer[tracer]
}

func (s *timedStore) AppendResult(campaignID, key string, payload any) error {
	start := time.Now()
	err := s.Store.AppendResult(campaignID, key, payload)
	s.tracer.Load().record(nil, "dist.Store.AppendResult", start, time.Now())
	return err
}

func (s *timedStore) PutCampaign(rec dist.CampaignRecord) error {
	start := time.Now()
	err := s.Store.PutCampaign(rec)
	s.tracer.Load().record(nil, "dist.Store.PutCampaign", start, time.Now())
	return err
}

// timedTransport records a span per HTTP exchange, from the request until
// the response body is closed, named by method and route (campaign IDs
// replaced by {id}). On traced runs it also counts claims that found no task,
// heartbeats, completion upload sizes, and — on a worker's connections — the
// time between a claim that leased a task and that task's completion post:
// the worker's sweep.
type timedTransport struct {
	base   http.RoundTripper
	tracer *atomic.Pointer[tracer]
	worker bool

	mu          sync.Mutex
	claims      int
	emptyClaims int
	heartbeats  int
	completeKB  []float64
	leased      time.Time
	sweep       time.Duration
}

// newTimedTransport returns a transport over its own connection pool;
// maxConns > 0 caps its connections to the service.
func newTimedTransport(tr *atomic.Pointer[tracer], maxConns int) *timedTransport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxConnsPerHost = maxConns
	return &timedTransport{base: base, tracer: tr}
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tracer.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	route := routeName(req.Method, req.URL.Path)
	start := time.Now()
	t.observeRequest(route, req, start)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.record(spanFrom(req.Context()), route, start, time.Now())
		return nil, err
	}
	if route == "http POST /v1/claim" {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if rerr == nil {
			t.observeClaim(body)
		}
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tr.record(spanFrom(req.Context()), route, start, time.Now())
	}}
	return resp, nil
}

func (t *timedTransport) observeRequest(route string, req *http.Request, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch route {
	case "http POST /v1/campaigns/{id}/heartbeat":
		t.heartbeats++
	case "http POST /v1/campaigns/{id}/complete":
		t.completeKB = append(t.completeKB, float64(req.ContentLength)/1024)
		if t.worker && !t.leased.IsZero() {
			t.sweep += now.Sub(t.leased)
			t.leased = time.Time{}
		}
	}
}

func (t *timedTransport) observeClaim(body []byte) {
	var fc dist.FleetClaimResponse
	if err := json.Unmarshal(body, &fc); err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.claims++
	if fc.Task == nil {
		t.emptyClaims++
	} else if t.worker {
		t.leased = time.Now()
	}
}

// spanBody calls done once, when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// routeName names an API route with the campaign ID replaced by {id}.
func routeName(method, path string) string {
	const prefix = dist.PathV1Campaigns + "/"
	if rest, ok := strings.CutPrefix(path, prefix); ok {
		if _, op, ok := strings.Cut(rest, "/"); ok {
			path = prefix + "{id}/" + op
		}
	}
	return "http " + method + " " + path
}
