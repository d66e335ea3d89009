package summary

import (
	"bufio"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"symplfied/internal/detector"
	"symplfied/internal/fingerprint"
	"symplfied/internal/isa"
)

// DefaultCacheCap bounds the in-memory LRU when NewCache is given no
// capacity. Summaries are a few hundred bytes each, so this is generous.
const DefaultCacheCap = 4096

// finishedSetCap bounds the in-memory memo of finished summary sets (one
// entry per program and detector table), evicted oldest first.
const finishedSetCap = 16

// Store is a second-level summary store behind the in-memory LRU: the
// on-disk JSONL store, or the coordinator-served HTTP store the distributed
// workers use. Values are the canonical JSON encoding of a FuncSummary.
// Content addressing makes entries self-validating — a key can only ever
// map to one value — so Load/Save need no versioning beyond the key.
type Store interface {
	Load(key string) (value []byte, ok bool, err error)
	Save(key string, value []byte) error
}

// Cache memoizes function summaries by content key: an in-memory LRU in
// front of an optional Store. A nil *Cache is valid and always misses.
// Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	store Store
	// sets memoizes finished summary sets by programKey, in memory only: a
	// Store never sees them, so disk and fleet formats are unchanged.
	sets     map[string]*finishedSet
	setOrder []string // oldest first
}

// finishedSet is one memoized Build result. keys and names list the
// functions' content keys and names in build order.
type finishedSet struct {
	set   *Set
	keys  []string
	names []string
}

type cacheEntry struct {
	key string
	sum *FuncSummary
}

// NewCache returns a cache holding up to capacity summaries in memory
// (DefaultCacheCap when capacity <= 0), backed by store (which may be nil).
func NewCache(capacity int, store Store) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
		store: store,
		sets:  make(map[string]*finishedSet),
	}
}

// programKey is the memo key of a finished set: the whole program listing
// (labels and function entries included) plus the detector table.
func programKey(prog *isa.Program, dets *detector.Table) string {
	h := fingerprint.New()
	h.Line(keyVersion)
	h.Program(prog)
	h.Detectors(dets)
	return h.Sum()
}

// finishedSet returns a Set sharing the finished build memoized under pk,
// or nil when there is none or some function key no longer hits (the
// rebuild then recomputes what was evicted). The returned Set's Stats are
// its own and record every function as a hit, as a warm rebuild would.
func (c *Cache) finishedSet(pk string) *Set {
	c.mu.Lock()
	f := c.sets[pk]
	c.mu.Unlock()
	if f == nil {
		return nil
	}
	for _, k := range f.keys {
		if _, ok := c.Get(k); !ok {
			return nil
		}
	}
	s := *f.set
	s.Stats = BuildStats{Functions: len(f.keys), Hits: append([]string(nil), f.names...)}
	liveHits.Add(int64(len(f.keys)))
	return &s
}

// putFinishedSet memoizes s under pk; order lists the function indexes in
// build order.
func (c *Cache) putFinishedSet(pk string, s *Set, keys []string, order []int) {
	f := &finishedSet{set: s}
	for _, fi := range order {
		f.keys = append(f.keys, keys[fi])
		f.names = append(f.names, s.Funcs.Funcs[fi].Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sets[pk]; !ok {
		c.setOrder = append(c.setOrder, pk)
	}
	c.sets[pk] = f
	for len(c.setOrder) > finishedSetCap {
		delete(c.sets, c.setOrder[0])
		c.setOrder = c.setOrder[1:]
	}
}

// Get returns a copy of the summary cached under key, consulting memory
// first and then the store (a store hit is promoted into memory).
func (c *Cache) Get(key string) (*FuncSummary, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		cp := *el.Value.(*cacheEntry).sum
		c.mu.Unlock()
		return &cp, true
	}
	c.mu.Unlock()
	if c.store == nil {
		return nil, false
	}
	raw, ok, err := c.store.Load(key)
	if err != nil || !ok {
		return nil, false
	}
	var sum FuncSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		liveInvalidated.Inc() // corrupt store entry: dropped
		return nil, false
	}
	c.insert(key, &sum)
	cp := sum
	return &cp, true
}

// Put caches a copy of sum under key in memory and, when a store is
// attached, persists it there too.
func (c *Cache) Put(key string, sum *FuncSummary) {
	if c == nil || sum == nil {
		return
	}
	cp := *sum
	c.insert(key, &cp)
	if c.store != nil {
		if raw, err := json.Marshal(&cp); err == nil {
			_ = c.store.Save(key, raw) // best effort: the cache is an accelerator
		}
	}
}

// GetRaw returns the canonical JSON of the summary under key, for serving
// the cache over the wire (internal/dist coordinator).
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	sum, ok := c.Get(key)
	if !ok {
		return nil, false
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		return nil, false
	}
	return raw, true
}

// PutRaw validates and caches a wire-received summary encoding. Undecodable
// payloads are counted invalidated and dropped.
func (c *Cache) PutRaw(key string, raw []byte) bool {
	if c == nil {
		return false
	}
	var sum FuncSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		liveInvalidated.Inc()
		return false
	}
	c.Put(key, &sum)
	return true
}

// Len returns the number of summaries resident in memory.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *Cache) insert(key string, sum *FuncSummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).sum = sum
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, sum: sum})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		liveInvalidated.Inc() // LRU eviction
	}
}

// DiskStore is the on-disk summary store: one append-only JSON-lines file
// (summaries.jsonl) in a directory, loaded fully at open. Appends are
// serialized per process; sharing a directory across processes is safe for
// readers but concurrent writers should go through the coordinator instead.
type DiskStore struct {
	mu    sync.Mutex
	f     *os.File
	known map[string]json.RawMessage
}

// diskEntry is one JSONL line.
type diskEntry struct {
	Key     string          `json:"key"`
	Summary json.RawMessage `json:"summary"`
}

// OpenDiskStore opens (creating if needed) the summary store in dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("summary store: %w", err)
	}
	path := filepath.Join(dir, "summaries.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("summary store: %w", err)
	}
	ds := &DiskStore{f: f, known: make(map[string]json.RawMessage)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e diskEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			liveInvalidated.Inc() // torn or corrupt line: skipped
			continue
		}
		ds.known[e.Key] = append(json.RawMessage(nil), e.Summary...)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("summary store %s: %w", path, err)
	}
	return ds, nil
}

// Load returns the stored value for key.
func (ds *DiskStore) Load(key string) ([]byte, bool, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	v, ok := ds.known[key]
	return v, ok, nil
}

// Save appends the entry unless the key is already present (content
// addressing: same key, same value).
func (ds *DiskStore) Save(key string, value []byte) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if _, ok := ds.known[key]; ok {
		return nil
	}
	line, err := json.Marshal(diskEntry{Key: key, Summary: value})
	if err != nil {
		return err
	}
	if _, err := ds.f.Write(append(line, '\n')); err != nil {
		return err
	}
	ds.known[key] = append(json.RawMessage(nil), value...)
	return nil
}

// Len returns the number of stored summaries.
func (ds *DiskStore) Len() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.known)
}

// Close closes the underlying file. Load/Save after Close fail.
func (ds *DiskStore) Close() error { return ds.f.Close() }
