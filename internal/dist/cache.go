package dist

import (
	"encoding/json"
	"fmt"
	"sync"

	"symplfied/internal/cluster"
	"symplfied/internal/obs"
)

var (
	mCacheHits   = obs.Default().Counter(obs.MDistCacheHits)
	mCacheMisses = obs.Default().Counter(obs.MDistCacheMisses)
)

// ResultCache is the fleet-wide content-addressed store of settled task
// results. The key covers everything that determines a task's result:
//
//   - the campaign fingerprint (program, detectors, input, predicate,
//     execution options, budgets, injection list — see campaign.Fingerprint),
//   - the decomposition width (cluster.Split is deterministic, so the
//     fingerprint, the width and the task ID pin the exact injection slice),
//   - the task ID within that split,
//   - the per-task state budget and findings cap, which bound exploration.
//
// Exploration is deterministic, so two campaigns lowering to the same key
// would compute byte-identical TaskResults; a hit is answered at claim time
// without a worker lease. Values are stored as serialized JSON so a cached
// result shares no mutable state with the campaign that produced it.
//
// The cache is shared by every campaign in a Registry and survives campaign
// completion, but is process-local: a restarted service re-warms it from the
// durable Store's journaled results.
type ResultCache struct {
	mu sync.Mutex
	m  map[string]json.RawMessage

	hits, misses int64
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{m: make(map[string]json.RawMessage)}
}

// resultCacheKey pins a task's result: campaign fingerprint, decomposition
// width, task ID, normalized state budget and findings cap. A zero budget is
// normalized to cluster.DefaultTaskStateBudget so explicit and defaulted
// documents share entries.
func resultCacheKey(fingerprint string, width, taskID, stateBudget, maxFindings int) string {
	if stateBudget <= 0 {
		stateBudget = cluster.DefaultTaskStateBudget
	}
	return fmt.Sprintf("%s|%d|%d|%d|%d", fingerprint, width, taskID, stateBudget, maxFindings)
}

// Get looks up a settled result. The returned TaskResult is freshly decoded
// and owned by the caller.
func (c *ResultCache) Get(key string) (TaskResult, bool) {
	if c == nil {
		return TaskResult{}, false
	}
	c.mu.Lock()
	raw, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		mCacheMisses.Inc()
		return TaskResult{}, false
	}
	var res TaskResult
	if err := json.Unmarshal(raw, &res); err != nil {
		// A value that fails to decode is unusable; treat as a miss.
		mCacheMisses.Inc()
		return TaskResult{}, false
	}
	mCacheHits.Inc()
	return res, true
}

// Put publishes a settled result. Failed tasks are not cached: an
// infrastructure failure (worker OOM, timeout on a slow host) is not a
// property of the key and should be retried, not replayed fleet-wide.
func (c *ResultCache) Put(key string, res TaskResult) {
	if c == nil || res.Failure != "" {
		return
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.m[key]; !ok {
		c.m[key] = raw
	}
	c.mu.Unlock()
}

// Len reports the number of cached results.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports lifetime hit and miss counts.
func (c *ResultCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
