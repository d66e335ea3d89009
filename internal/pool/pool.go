// Package pool is the one worker pool every sweep fans its independent work
// through. The paper's Section 6.1 harness splits a search into independent
// sweeps, runs them on a cluster and pools the results; here the checker's
// injection sweep, the cluster harness's task pool and speculative task
// sweep, the resilient campaign runner and the cross-validation sweep all
// hand Run an item count and a function of the item's index.
//
// Run dispatches indexes strictly in order and checks the context before
// every dispatch, so the indexes that ran are always a prefix [0, ran): a
// sweep that is cancelled, or whose function asks it to stop, never starts
// an index past one it skipped. Callers merge that prefix in index order, so
// a sweep at any width yields the report a one-worker sweep would.
package pool

import (
	"context"
	"runtime"
	"sync"

	"symplfied/internal/obs"
)

// Size resolves a parallelism value against n items of independent work: 0
// (or less) means GOMAXPROCS, and a pool never has more workers than items.
func Size(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return min(parallelism, n)
}

// Run calls fn(i) for the indexes of n items on Size(parallelism, n)
// workers and returns how many ran: exactly the indexes [0, ran), each once.
// The caller's goroutine is one of the workers, so at one worker every call
// runs inline, in index order; wider pools add goroutines, and fn must then
// be safe for concurrent use. Before each dispatch Run checks ctx and
// whether an earlier call returned stop; either ends dispatch. Calls already
// dispatched run to completion, and Run returns once all of them have.
//
// The pool's width and its busy workers are added to the
// symplfied_pool_workers and symplfied_pool_busy_workers gauges as deltas,
// so nested or side-by-side pools in one process stay additive, and both
// gauges are back at their starting values when Run returns.
func Run(ctx context.Context, parallelism, n int, fn func(i int) (stop bool)) (ran int) {
	workers := Size(parallelism, n)
	if workers <= 0 {
		return 0
	}
	reg := obs.Default()
	width, busy := reg.Gauge(obs.MWorkers), reg.Gauge(obs.MBusyWorkers)
	width.Add(int64(workers))
	defer width.Add(-int64(workers))

	var (
		mu      sync.Mutex // guards next and stopped
		next    int
		stopped bool
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next == n || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	work := func() {
		for i, ok := claim(); ok; i, ok = claim() {
			busy.Add(1)
			stop := fn(i)
			busy.Add(-1)
			if stop {
				mu.Lock()
				stopped = true
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return next
}
