package symbolic

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Hash-consing of constraint sets. Every constraint set a Store records is
// interned: mutated copies are canonicalized through a global table so that
// structurally equal sets are represented by one immutable *Constraints.
//
// The interning invariants are:
//
//   - pointer equality implies structural equality: two interned sets are
//     the same set iff they are the same pointer;
//   - interned sets are immutable: the mutating methods (AddCmp, MarkUnsat)
//     panic on an interned set, so a canonical pointer can be shared by any
//     number of stores, goroutines, and cached snapshots without copying;
//   - the content hash is computed once at intern time and cached, so state
//     keying (Store.KeyHash) costs O(roots) instead of re-hashing every
//     bound and disequality of every set.
//
// Interning is what makes constraint scopes (Store.Push/Pop) and
// copy-on-write cloning O(1): a snapshot captures map shells whose values
// are guaranteed never to change underneath it.

// internShards is the number of lock shards; a power of two so the hash can
// be masked. 64 keeps contention negligible for a worker pool of realistic
// size while staying tiny.
const internShards = 64

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]*Constraints
}

var internTab [internShards]internShard

var (
	internHits   atomic.Int64
	internMisses atomic.Int64
)

// Intern returns the canonical immutable representative of c's content,
// registering it if the content is new. The argument is not retained when a
// representative already exists; when it is retained, a private copy is
// stored so later caller mutations cannot alias the table. Safe for
// concurrent use.
func Intern(c *Constraints) *Constraints {
	if c.interned {
		return c
	}
	return internCopy(c)
}

// internCopy is Intern for a set that is not interned yet. It never returns
// or retains c itself, so a caller's scratch set can live on the stack.
func internCopy(c *Constraints) *Constraints {
	h := NewHash64()
	c.hashInto(&h)
	sum := h.Sum()
	sh := &internTab[sum&(internShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[uint64][]*Constraints)
	}
	for _, e := range sh.m[sum] {
		if equalContent(e, c) {
			internHits.Add(1)
			return e
		}
	}
	internMisses.Add(1)
	cp := c.Clone()
	cp.hash = sum
	cp.interned = true
	sh.m[sum] = append(sh.m[sum], cp)
	return cp
}

// internedEmpty is the canonical unconstrained set, shared by every fresh
// root in every store.
var internedEmpty = Intern(NewConstraints())

// equalContent reports structural equality of two constraint sets.
func equalContent(a, b *Constraints) bool {
	if a.unsat != b.unsat || a.hasLo != b.hasLo || a.hasHi != b.hasHi ||
		(a.hasLo && a.lo != b.lo) || (a.hasHi && a.hi != b.hi) ||
		len(a.ne) != len(b.ne) {
		return false
	}
	for v := range a.ne {
		if _, ok := b.ne[v]; !ok {
			return false
		}
	}
	return true
}

// InternStats returns the global intern-table hit/miss counters: hits are
// canonicalizations that found an existing representative. The counters are
// process-wide (the table is shared by all stores and goroutines), so they
// feed live metrics, not per-injection reports.
func InternStats() (hits, misses int64) {
	return internHits.Load(), internMisses.Load()
}

// Disjunction is the constraint of a merged state: a choice between the
// symbolic stores of the control-flow paths that were fused at a
// post-dominator. It is the ite-free normal form of ite-style merging — each
// disjunct carries the whole constraint world of one path — which keeps the
// per-world solver queries (affine inversion + difference logic) unchanged.
type Disjunction struct {
	// Worlds holds one store per fused path, in deterministic merge order.
	Worlds []*Store
}

// Satisfiable reports whether any disjunct is satisfiable.
func (d *Disjunction) Satisfiable() bool {
	for _, w := range d.Worlds {
		if w.Satisfiable() {
			return true
		}
	}
	return false
}

// Describe renders the disjunction for reports, one world per disjunct.
func (d *Disjunction) Describe() string {
	if len(d.Worlds) == 0 {
		return "no symbolic state"
	}
	parts := make([]string, len(d.Worlds))
	for i, w := range d.Worlds {
		parts[i] = "(" + w.Describe() + ")"
	}
	return strings.Join(parts, " ∨ ")
}
