// Package obs is the observability substrate for long fault-injection
// campaigns: the live analogue of the paper's evaluation tables (DSN 2008,
// Tables 2-4), which report how many states each search explored, how many
// forks the solver pruned, and how long each workload took. It is a
// zero-dependency metrics layer — atomic counters, gauges and fixed-bucket
// histograms in a Registry whose Snapshot marshals both to expvar-style JSON
// and to the Prometheus text exposition format — threaded through the
// checker, cluster and dist hot paths, plus the operational endpoints
// (/metrics, /debug/vars, net/http/pprof) and the periodic one-line progress
// report the CLIs expose via -metrics-addr and -progress.
//
// Metric names are declared once here (the M* constants) so the producers
// (checker, cluster, campaign, dist) and the consumers (progress reporter,
// scrapers) agree. Per-injection exploration tallies additionally travel
// inside reports as ExecStats, so checkpoint journals and the distributed
// wire protocol merge counters exactly the way they merge findings.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names. The search layers register these against the
// Default registry; the progress reporter and the docs refer to them by the
// same names.
const (
	// Search-engine counters (checker / symexec).
	MStates        = "symplfied_states_total"
	MFindings      = "symplfied_findings_total"
	MInjections    = "symplfied_injections_total"
	MInjTimeouts   = "symplfied_injection_timeouts_total"
	MInjPanics     = "symplfied_injection_panics_total"
	MForks         = "symplfied_forks_total" // label kind: cmp|divisor|load|store|control|detector
	MSolverPrunes  = "symplfied_solver_prunes_total"
	MDedupHits     = "symplfied_dedup_hits_total"
	MWatchdogTrunc = "symplfied_watchdog_truncations_total"
	MFanoutTrunc   = "symplfied_fanout_truncations_total"
	MFrontier      = "symplfied_frontier_states"     // gauge: live frontier width (summed over workers)
	MFrontierMax   = "symplfied_frontier_max_states" // gauge: high-water frontier width
	// States the plain explorer ran on the concrete machine (err-free tails),
	// the part of them the machine's cycle accelerator skipped, and the part
	// of those its store-lap gear skipped (laps that change memory).
	MConcreteTail          = "symplfied_concrete_tail_states_total"
	MConcreteTailSkipped   = "symplfied_concrete_tail_skipped_steps_total"
	MConcreteTailStoreLaps = "symplfied_concrete_tail_store_lap_steps_total"
	// Control fan-out children (a jr through an erroneous target) by how the
	// explorer ran them: in a reused scratch state, or built as a state.
	MControlTargets = "symplfied_control_targets_total" // label path: in_place|materialized
	// Concrete campaign trials (internal/simplescalar) answered from the
	// fault-free run by a masking proof instead of run to their end.
	MConcreteAnswered = "symplfied_concrete_trials_answered_total" // label shortcut: unreached|same-value|converged

	// Static analysis (internal/analysis).
	MLintDiags = "symplfied_lint_diagnostics_total" // label severity: error|warning

	// Compositional fault summaries (internal/summary) and summary-based
	// injection elision (internal/checker).
	MSummariesComputed    = "symplfied_summaries_computed_total"    // function summaries (re)computed
	MSummaryCacheHits     = "symplfied_summary_cache_hits_total"    // summaries served from the cache
	MSummariesComposed    = "symplfied_summaries_composed_total"    // call-site compositions applied
	MSummariesInvalidated = "symplfied_summaries_invalidated_total" // evicted, corrupt or dropped entries
	MSummarizedInjections = "symplfied_summarized_injections_total" // explorations elided by a summary proof

	// Post-dominator state merging and incremental constraint solving
	// (internal/checker merged explorer, internal/symbolic intern table).
	MMergedInjections  = "symplfied_merged_injections_total"  // injections explored by the merged explorer
	MMergedStates      = "symplfied_merged_states_total"      // state observations elided by shared stepping
	MCyclesAccelerated = "symplfied_cycles_accelerated_total" // deterministic cycles fast-forwarded to the watchdog
	MStepsElided       = "symplfied_steps_elided_total"       // steps skipped by cycle acceleration
	MInternHits        = "symplfied_intern_hits_total"        // gauge: process-wide constraint-set intern hits
	MInternMisses      = "symplfied_intern_misses_total"      // gauge: process-wide constraint-set intern misses

	// Cluster / campaign harness.
	MTasksTotal  = "symplfied_tasks_total" // gauge: campaign decomposition width
	MTasksDone   = "symplfied_tasks_done"  // gauge: tasks (or injections) settled so far
	MTaskSeconds = "symplfied_task_seconds"
	MWorkers     = "symplfied_pool_workers"      // gauge: worker pool size
	MBusyWorkers = "symplfied_pool_busy_workers" // gauge: workers currently sweeping

	// Distributed coordinator (mirrors dist.Counters).
	MDistTasksServed     = "symplfied_dist_tasks_served_total"
	MDistTasksCompleted  = "symplfied_dist_tasks_completed_total"
	MDistTasksReassigned = "symplfied_dist_tasks_reassigned_total"
	MDistHeartbeats      = "symplfied_dist_heartbeats_total"
	MDistReportsPooled   = "symplfied_dist_reports_pooled_total"
	MDistDuplicates      = "symplfied_dist_duplicate_completions_total"
	MDistJournalErrors   = "symplfied_dist_journal_errors_total"
	MDistWorkersLive     = "symplfied_dist_workers_live" // gauge

	// Multi-tenant campaign service (dist.Registry / dist.Service).
	MDistCampaignsOpen = "symplfied_dist_campaigns_open"       // gauge: campaigns accepting claims
	MDistCampaignsDone = "symplfied_dist_campaigns_done_total" // campaigns that settled every task
	MDistCacheHits     = "symplfied_dist_result_cache_hits_total"
	MDistCacheMisses   = "symplfied_dist_result_cache_misses_total"
	MDistQuotaDenials  = "symplfied_dist_quota_denials_total" // label tenant: claims/creates refused at quota
	MDistTenantLeased  = "symplfied_dist_tenant_leased"       // gauge, label tenant: tasks leased fleet-wide
	MDistEvents        = "symplfied_dist_events_total"        // per-campaign events appended (task settles, done, cancel)

	// Concrete↔symbolic cross-validation (internal/crossval).
	MXvalTrials     = "symplfied_crossval_trials_total"        // concrete injections executed
	MXvalKills      = "symplfied_crossval_timeout_kills_total" // trials killed at the wall-clock deadline (classified Hang)
	MXvalRetries    = "symplfied_crossval_retries_total"       // transient-failure re-runs (concrete and symbolic)
	MXvalPoints     = "symplfied_crossval_points_total"        // injection points cross-validated
	MXvalMismatches = "symplfied_crossval_mismatches_total"    // label class: symbolic-miss|concrete-miss|class-drift

	// Distributed worker client.
	MWorkerClaimed      = "symplfied_worker_tasks_claimed_total"
	MWorkerCompleted    = "symplfied_worker_tasks_completed_total"
	MWorkerDuplicates   = "symplfied_worker_tasks_duplicate_total"
	MWorkerAbandoned    = "symplfied_worker_tasks_abandoned_total"
	MWorkerHeartbeats   = "symplfied_worker_heartbeats_total"
	MWorkerHBFailures   = "symplfied_worker_heartbeat_failures_total"
	MWorkerLeasesLost   = "symplfied_worker_leases_lost_total"
	MWorkerPostBytes    = "symplfied_worker_post_bytes_total"
	MWorkerUploadSecond = "symplfied_worker_upload_seconds"
)

// Label is one metric dimension (e.g. kind=cmp on MForks).
type Label struct{ Key, Value string }

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates metric types in snapshots.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind in the Prometheus TYPE line.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n exceeds the current value (high-water
// marks like MFrontierMax).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram bucket upper bounds, in seconds
// (Prometheus' client conventions: 5ms up to 10s, exponential-ish).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram with atomic cells. Observations
// above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// metric is one registered instrument.
type metric struct {
	name   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry or the process-wide Default. All methods are safe for
// concurrent use; instrument handles returned once stay valid forever, so
// hot paths should look up their instruments once and hold the pointer.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry the search layers register against.
func Default() *Registry { return defaultRegistry }

// key renders the identity of a metric: name plus sorted labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the metric registered under (name, labels), creating it
// with mk when absent. Re-registering an existing name with a different kind
// returns the existing instrument's slot untouched (callers must not reuse a
// name across kinds; the docs test pins the canonical names).
func (r *Registry) lookup(name string, labels []Label, kind Kind, mk func(*metric)) *metric {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[k]; ok {
		return m
	}
	m := &metric{name: name, labels: append([]Label(nil), labels...), kind: kind}
	sort.Slice(m.labels, func(i, j int) bool { return m.labels[i].Key < m.labels[j].Key })
	mk(m)
	r.metrics[k] = m
	return m
}

// Counter returns the counter registered under name (+labels), creating it
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	m := r.lookup(name, labels, KindCounter, func(m *metric) { m.c = &Counter{} })
	if m.c == nil {
		return &Counter{} // kind clash: hand back a detached instrument
	}
	return m.c
}

// Gauge returns the gauge registered under name (+labels), creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	m := r.lookup(name, labels, KindGauge, func(m *metric) { m.g = &Gauge{} })
	if m.g == nil {
		return &Gauge{}
	}
	return m.g
}

// Histogram returns the histogram registered under name (+labels), creating
// it with the given bucket bounds (nil: DefBuckets) on first use. Bounds
// must be sorted ascending.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	m := r.lookup(name, labels, KindHistogram, func(m *metric) {
		if buckets == nil {
			buckets = DefBuckets
		}
		h := &Histogram{bounds: append([]float64(nil), buckets...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		m.h = h
	})
	if m.h == nil {
		h := &Histogram{bounds: append([]float64(nil), DefBuckets...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		return h
	}
	return m.h
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// Le is the bucket's inclusive upper bound; +Inf for the last.
	Le float64
	// Count is the cumulative count of observations <= Le.
	Count int64
}

// Point is one metric reading in a snapshot.
type Point struct {
	Name   string
	Labels []Label `json:",omitempty"`
	Kind   Kind
	// Value carries counter and gauge readings.
	Value int64 `json:",omitempty"`
	// Count, Sum and Buckets carry histogram readings.
	Count   int64         `json:",omitempty"`
	Sum     float64       `json:",omitempty"`
	Buckets []BucketCount `json:",omitempty"`
}

// ID renders the point's identity (name plus sorted labels), e.g.
// symplfied_forks_total{kind=cmp}.
func (p Point) ID() string { return key(p.Name, p.Labels) }

// Snapshot is a consistent-enough, deterministically ordered reading of a
// registry: points are sorted by ID, so equal registry contents always
// render the same bytes (the snapshot-determinism contract the tests pin).
// Individual readings are atomic; the set is not a transaction.
type Snapshot []Point

// Snapshot reads every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()

	snap := make(Snapshot, 0, len(ms))
	for _, m := range ms {
		p := Point{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			p.Value = m.c.Value()
		case KindGauge:
			p.Value = m.g.Value()
		case KindHistogram:
			p.Count = m.h.Count()
			p.Sum = m.h.Sum()
			cum := int64(0)
			for i := range m.h.counts {
				cum += m.h.counts[i].Load()
				le := math.Inf(1)
				if i < len(m.h.bounds) {
					le = m.h.bounds[i]
				}
				p.Buckets = append(p.Buckets, BucketCount{Le: le, Count: cum})
			}
		}
		snap = append(snap, p)
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].ID() < snap[j].ID() })
	return snap
}

// Get returns the point with the given name and labels, if present.
func (s Snapshot) Get(name string, labels ...Label) (Point, bool) {
	id := key(name, labels)
	for _, p := range s {
		if p.ID() == id {
			return p, true
		}
	}
	return Point{}, false
}

// ExpvarMap flattens the snapshot into the map served under /debug/vars:
// counters and gauges become {"id": value}; a histogram becomes
// {"id": {"count": n, "sum": s, "le": {"0.005": c, ...}}}.
func (s Snapshot) ExpvarMap() map[string]any {
	out := make(map[string]any, len(s))
	for _, p := range s {
		switch p.Kind {
		case KindHistogram:
			le := make(map[string]int64, len(p.Buckets))
			for _, b := range p.Buckets {
				le[formatLe(b.Le)] = b.Count
			}
			out[p.ID()] = map[string]any{"count": p.Count, "sum": p.Sum, "le": le}
		default:
			out[p.ID()] = p.Value
		}
	}
	return out
}

// formatLe renders a bucket bound the way Prometheus does ("+Inf" for the
// overflow bucket).
func formatLe(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", le), "0"), ".")
}

// sanitizeName maps an arbitrary string onto the Prometheus metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double-quote and newline.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promLabels renders a label set ({k="v",...}), with extra appended last.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, sanitizeName(l.Key), escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Families sharing a name emit one TYPE line.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, p := range s {
		name := sanitizeName(p.Name)
		if name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, p.Kind); err != nil {
				return err
			}
			lastFamily = name
		}
		switch p.Kind {
		case KindHistogram:
			for _, b := range p.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					name, promLabels(p.Labels, L("le", formatLe(b.Le))), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
				name, promLabels(p.Labels), p.Sum,
				name, promLabels(p.Labels), p.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, promLabels(p.Labels), p.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
