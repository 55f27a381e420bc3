package client

import (
	"container/list"
	"sync"
	"sync/atomic"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// mapCache is the client-side chunk-map cache behind Open, keyed by
// (dataset key, version). Checkpoint versions are immutable once
// committed — the chunk list of (dataset, version) never changes — so an
// explicit-version open that hits serves its map with zero manager RPCs.
// A "latest" open revalidates with one MStatVersion round trip (name →
// committed version identity, a few bytes) and falls back to the cached
// map on match; only a genuinely new version pays the full MGetMap.
//
// This is the client half of the restart fast path: a DMTCP-style restart
// storm re-opens the same checkpoint from every process of a job, and
// without the cache each open is a full map fetch (§IV.E read
// performance; the manager-side hotMapCache covers the server half).
//
// Staleness: cached location sets can lag replicas added after the fetch
// (benign — locations only grow while a version lives) and, for
// explicit-version hits, cannot see deletes or replica death on the
// manager. The reader's per-chunk replica failover absorbs individual
// stale locations; a fully stale map surfaces as a read error, and
// re-opening after Invalidate gives the fresh view. A TTL for long-lived
// caches under replica churn is a recorded follow-on.
type mapCache struct {
	mu    sync.Mutex
	cap   int
	byKey map[mapCacheKey]*list.Element
	lru   *list.List // front = most recently used

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

type mapCacheKey struct {
	dataset string
	version core.VersionID
}

type mapCacheEntry struct {
	key      mapCacheKey
	fileName string
	// m is shared with every Reader opened from this entry; Readers (and
	// everyone else) treat installed maps as immutable.
	m *core.ChunkMap
}

// defaultClientMapCacheEntries bounds the client cache when the config
// does not. A restarting job re-opens a handful of datasets; 256 covers
// generous multi-dataset jobs while keeping worst-case memory modest.
const defaultClientMapCacheEntries = 256

// newMapCache builds a cache of up to capEntries maps; capEntries <= 0
// disables caching (Config.MapCacheEntries < 0, the benchmark baseline).
func newMapCache(capEntries int) *mapCache {
	c := &mapCache{cap: capEntries}
	if capEntries > 0 {
		c.byKey = make(map[mapCacheKey]*list.Element)
		c.lru = list.New()
	}
	return c
}

func (c *mapCache) enabled() bool { return c.cap > 0 }

// get returns the cached map for (dataset, version), or nil on a miss.
// The returned map is shared — callers must not mutate it.
func (c *mapCache) get(dataset string, version core.VersionID) (string, *core.ChunkMap) {
	if !c.enabled() {
		c.misses.Add(1)
		return "", nil
	}
	key := mapCacheKey{dataset: dataset, version: version}
	c.mu.Lock()
	el, ok := c.byKey[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return "", nil
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*mapCacheEntry)
	name, m := e.fileName, e.m
	c.mu.Unlock()
	c.hits.Add(1)
	return name, m
}

// put caches a freshly fetched map under (dataset, m.Version). The cache
// takes shared ownership: the caller and every future Reader must treat m
// as immutable.
func (c *mapCache) put(dataset, fileName string, m *core.ChunkMap) {
	if !c.enabled() || m == nil {
		return
	}
	key := mapCacheKey{dataset: dataset, version: m.Version}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*mapCacheEntry)
		e.fileName, e.m = fileName, m // refetch can only be fresher
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&mapCacheEntry{key: key, fileName: fileName, m: m})
	c.byKey[key] = el
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*mapCacheEntry).key)
	}
}

// hasDataset reports whether any version of the dataset is cached. A
// "latest" open only pays the revalidation probe when this is true —
// with nothing cached, the probe could not save the map fetch, so the
// cold path keeps the historical single-RPC shape.
func (c *mapCache) hasDataset(dataset string) bool {
	if !c.enabled() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.byKey {
		if key.dataset == dataset {
			return true
		}
	}
	return false
}

// invalidateDataset drops every cached version of one dataset (local
// deletes; remote deletes by other clients are invisible until a read
// fails).
func (c *mapCache) invalidateDataset(dataset string) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	var n int64
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*mapCacheEntry)
		if e.key.dataset == dataset {
			c.lru.Remove(el)
			delete(c.byKey, e.key)
			n++
		}
		el = next
	}
	c.mu.Unlock()
	if n > 0 {
		c.invalidations.Add(n)
	}
}

// snapshot reports cache counters.
func (c *mapCache) snapshot() proto.MapCacheStats {
	return proto.MapCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}
