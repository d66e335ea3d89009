package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call into a layer.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"` // the root span's ID: one per op
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

type spanKey struct{}

// start opens a span named name under the span ctx carries (a new trace when
// it carries none) and returns ctx carrying the new span.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	o := &openSpan{t: t, s: span{Name: name, ID: t.ids.Add(1)}}
	if parent := spanFrom(ctx); parent != nil {
		o.s.Parent = parent.s.ID
		o.s.Trace = parent.s.Trace
	} else {
		o.s.Trace = o.s.ID
	}
	o.s.Start = int64(time.Since(t.epoch))
	return context.WithValue(ctx, spanKey{}, o), o
}

// record stores a span timed by its caller (a round-tripper, a store
// decorator) under parent, or as a new trace when parent is nil.
func (t *tracer) record(parent *openSpan, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: t.ids.Add(1), Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	if parent != nil {
		s.Parent, s.Trace = parent.s.ID, parent.s.Trace
	} else {
		s.Trace = s.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanFrom returns the span ctx carries, or nil.
func spanFrom(ctx context.Context) *openSpan {
	o, _ := ctx.Value(spanKey{}).(*openSpan)
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line, in start order.
func (t *tracer) writeJSONL(path string) error {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanIndex groups spans by name with each span's self time: its duration
// minus the part of its interval its children cover.
type spanIndex struct {
	byName map[string][]spanTimes
}

type spanTimes struct {
	dur, self time.Duration
}

func indexSpans(spans []span) *spanIndex {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	idx := &spanIndex{byName: map[string][]spanTimes{}}
	for _, s := range spans {
		dur := time.Duration(s.End - s.Start)
		self := dur - time.Duration(covered(s, children[s.ID]))
		idx.byName[s.Name] = append(idx.byName[s.Name], spanTimes{dur: dur, self: self})
	}
	return idx
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's: children running in parallel are not counted twice.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// durationsMS returns the durations of the spans named name, in ms, sorted.
func (x *spanIndex) durationsMS(name string) []float64 {
	out := make([]float64, 0, len(x.byName[name]))
	for _, t := range x.byName[name] {
		out = append(out, ms(t.dur))
	}
	sort.Float64s(out)
	return out
}

// totalMS sums the durations of the spans named name.
func (x *spanIndex) totalMS(name string) float64 {
	var d time.Duration
	for _, t := range x.byName[name] {
		d += t.dur
	}
	return ms(d)
}

// spanStat is one row of the self-time table.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	MeanUS  float64 `json:"mean_us"`
}

// table is the per-span-name self-time table, largest self time first.
func (x *spanIndex) table() []spanStat {
	var out []spanStat
	for name, ts := range x.byName {
		st := spanStat{Name: name, Count: len(ts)}
		for _, t := range ts {
			st.TotalMS += ms(t.dur)
			st.SelfMS += ms(t.self)
		}
		st.MeanUS = st.TotalMS * 1000 / float64(st.Count)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
