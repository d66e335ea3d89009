package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"symplfied/internal/obs"
)

// ranPrefix asserts that the indexes counted in hits are exactly [0, ran),
// each once.
func ranPrefix(t *testing.T, hits []atomic.Int32, ran int) {
	t.Helper()
	for i := range hits {
		want := int32(0)
		if i < ran {
			want = 1
		}
		if got := hits[i].Load(); got != want {
			t.Fatalf("index %d ran %d times, want %d (ran = %d)", i, got, want, ran)
		}
	}
}

func TestSize(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ parallelism, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-3, 1000, min(procs, 1000)},
		{4, 1000, 4},
		{4, 3, 3},
		{1, 5, 1},
		{4, 0, 0},
		{0, 0, 0},
	} {
		if got := Size(tc.parallelism, tc.n); got != tc.want {
			t.Errorf("Size(%d, %d) = %d, want %d", tc.parallelism, tc.n, got, tc.want)
		}
	}
}

// TestOneWorkerRunsInOrderInline: at one worker every call runs on the
// caller's goroutine (Run starts none), in index order.
func TestOneWorkerRunsInOrderInline(t *testing.T) {
	var order []int
	goroutines := runtime.NumGoroutine()
	ran := Run(context.Background(), 1, 50, func(i int) bool {
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Errorf("index %d: %d goroutines running, want the caller's %d", i, n, goroutines)
		}
		order = append(order, i)
		return false
	})
	if ran != 50 || len(order) != 50 {
		t.Fatalf("ran %d, recorded %d, want 50", ran, len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran index %d", i, got)
		}
	}
}

func TestManyWorkersRunEveryIndexOnce(t *testing.T) {
	hits := make([]atomic.Int32, 200)
	ran := Run(context.Background(), 4, len(hits), func(i int) bool {
		hits[i].Add(1)
		return false
	})
	if ran != len(hits) {
		t.Fatalf("ran %d of %d", ran, len(hits))
	}
	ranPrefix(t, hits, ran)
}

// TestCancelledBeforeStartDispatchesNothing: an already-cancelled context
// starts no index at any width.
func TestCancelledBeforeStartDispatchesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		for rep := 0; rep < 200; rep++ {
			if ran := Run(ctx, par, 16, func(i int) bool {
				t.Fatalf("parallelism %d: index %d dispatched under a cancelled context", par, i)
				return false
			}); ran != 0 {
				t.Fatalf("parallelism %d: ran %d", par, ran)
			}
		}
	}
}

// TestCancelMidSweepStartsNothingAfter cancels from inside every fn(i) with
// i >= k. A worker that ran such an index finds the context done at its next
// dispatch, so each worker starts at most one index from k on: at one worker
// the sweep ends right after k, at four the prefix ends before k+4.
func TestCancelMidSweepStartsNothingAfter(t *testing.T) {
	const n, k = 64, 10
	for _, par := range []int{1, 4} {
		for rep := 0; rep < 200; rep++ {
			ctx, cancel := context.WithCancel(context.Background())
			hits := make([]atomic.Int32, n)
			ran := Run(ctx, par, n, func(i int) bool {
				hits[i].Add(1)
				if i >= k {
					cancel()
				}
				return false
			})
			cancel()
			ranPrefix(t, hits, ran)
			if limit := k + par; ran < k+1 || ran > limit {
				t.Fatalf("parallelism %d: ran %d after a cancel at index %d, want %d..%d", par, ran, k, k+1, limit)
			}
		}
	}
}

// TestStopEndsDispatch: fn returning stop ends dispatch the way a cancel
// does, without touching the context. Every index from k on asks to stop, so
// as above each worker starts at most one of them.
func TestStopEndsDispatch(t *testing.T) {
	const n, k = 64, 7
	for _, par := range []int{1, 4} {
		for rep := 0; rep < 200; rep++ {
			hits := make([]atomic.Int32, n)
			ran := Run(context.Background(), par, n, func(i int) bool {
				hits[i].Add(1)
				return i >= k
			})
			ranPrefix(t, hits, ran)
			if ran < k+1 || ran > k+par {
				t.Fatalf("parallelism %d: ran %d after a stop at index %d", par, ran, k)
			}
		}
	}
}

// TestWidthNeverExceedsItems: with three items and a parallelism of eight,
// the width gauge reads three and all three calls are in flight at once.
func TestWidthNeverExceedsItems(t *testing.T) {
	width := obs.Default().Gauge(obs.MWorkers)
	base := width.Value()
	var (
		inside  atomic.Int32
		maxSeen atomic.Int32
		all     sync.WaitGroup
	)
	all.Add(3)
	ran := Run(context.Background(), 8, 3, func(int) bool {
		now := inside.Add(1)
		for seen := maxSeen.Load(); now > seen && !maxSeen.CompareAndSwap(seen, now); seen = maxSeen.Load() {
		}
		if got := width.Value() - base; got != 3 {
			t.Errorf("pool width gauge %d, want 3", got)
		}
		all.Done()
		all.Wait() // every item is in flight at once
		inside.Add(-1)
		return false
	})
	if ran != 3 || maxSeen.Load() != 3 {
		t.Fatalf("ran %d with %d concurrent, want 3 and 3", ran, maxSeen.Load())
	}
}

// TestGaugesReturnToBase: both gauges are back at their starting values
// after a clean, a cancelled, a stopped and an empty sweep, and the busy
// gauge counts the call in flight.
func TestGaugesReturnToBase(t *testing.T) {
	reg := obs.Default()
	width, busy := reg.Gauge(obs.MWorkers), reg.Gauge(obs.MBusyWorkers)
	w0, b0 := width.Value(), busy.Value()

	Run(context.Background(), 1, 3, func(int) bool {
		if width.Value()-w0 != 1 || busy.Value()-b0 != 1 {
			t.Errorf("in flight: width %d busy %d, want 1 and 1", width.Value()-w0, busy.Value()-b0)
		}
		return false
	})
	Run(context.Background(), 4, 100, func(int) bool { return false })
	ctx, cancel := context.WithCancel(context.Background())
	Run(ctx, 4, 100, func(i int) bool {
		if i == 5 {
			cancel()
		}
		return false
	})
	cancel()
	Run(context.Background(), 4, 100, func(i int) bool { return i == 3 })
	Run(context.Background(), 4, 0, func(int) bool {
		t.Error("empty sweep dispatched")
		return false
	})
	if width.Value() != w0 || busy.Value() != b0 {
		t.Errorf("gauges after the sweeps: width %d busy %d, want %d and %d", width.Value(), busy.Value(), w0, b0)
	}
}
