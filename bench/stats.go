package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of sorted values,
// interpolating linearly between the closest ranks; NaN when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// tailPercentile is the highest of the percentiles 50, 90, 99 and 99.9 that
// has at least ten of n samples beyond it: a tail percentile read from fewer
// samples is one outlier's value, not a property of the distribution.
// 0 when even the median lacks ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile with the
// method of Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so the spread this program reports is the spread
// computed from the same values elsewhere. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCycles, gcCPU, totalCPU float64
	allocBytes, allocObjects  float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	samples := make([]rtmetrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{gcCycles: v(0), gcCPU: v(1), totalCPU: v(2), allocBytes: v(3), allocObjects: v(4)}
}

// runtimeLayers adds the runtime metrics of the timed phase between two
// readings: allocation per op, GC cycles and the GC's share of CPU time.
func runtimeLayers(before, after runtimeSample, ph phase, m metrics) {
	ops := float64(max(ph.ops, 1))
	m.set("runtime.alloc_bytes_per_op", (after.allocBytes-before.allocBytes)/ops, "B", ph.ops)
	m.set("runtime.mallocs_per_op", (after.allocObjects-before.allocObjects)/ops, "count", ph.ops)
	m.set("runtime.gc_cycles", after.gcCycles-before.gcCycles, "count", 1)
	frac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		frac = (after.gcCPU - before.gcCPU) / cpu
	}
	m.set("runtime.gc_cpu_frac", frac, "ratio", 1)
}
