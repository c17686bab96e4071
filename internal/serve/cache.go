// Result cache: the serve-path observation that makes repeated design
// -point queries free. SRE runs are fully deterministic — the same
// (network, prune, build-config, run-options, act_seed) tuple always
// yields a bit-identical Result (the invariant the golden tests and the
// served bit-identity tests pin) — so once a sweep has computed a
// (BatchKey, mode, act_seed) cell, every later request for it can be
// answered without simulating. A mode that reads no activation values
// has one cell for every act_seed, so a fresh-seed request that
// includes it adds entries only for its DOF modes. The server reads the
// cache twice: on arrival, so a hit never waits for a sweep slot, and
// again once a slot is held, so a request queued behind an identical
// running sweep reuses its cells. Reads are per cell: a request whose
// cells are partly cached sweeps only the modes the cache lacks. The
// cache is a byte-accounted LRU: entries are charged their estimated
// wire size, and past the configured cap the least recently used
// results are dropped. Correctness is unaffected by eviction — a miss
// just re-simulates — so the cap is purely a memory bound.
package serve

import (
	"container/list"
	"sync"
	"unsafe"

	"sre"
	"sre/internal/metrics"
)

// BatchKey is the request half of a result-cache key: the resident
// network plus every run option that changes results. (Worker width
// does not — results are bit-identical at any width.) The mode and the
// activation seed complete the key.
type BatchKey struct {
	Key        Key
	MaxWindows int
	IndexBits  int
}

// resultCacheKey identifies one cached Result: the request's BatchKey
// refined by the mode and the activation seed — exactly the tuple that
// determines a Result bit-for-bit. Build keys with cellKey.
type resultCacheKey struct {
	BatchKey BatchKey
	Mode     sre.Mode
	ActSeed  uint64
}

// cellKey is the cache cell of mode's result at actSeed. A mode that
// does not read activations (sre.Mode.ReadsActivations) gives the same
// result under every seed, so all its seeds share act_seed 0's cell.
func cellKey(key BatchKey, mode sre.Mode, actSeed uint64) resultCacheKey {
	if !mode.ReadsActivations() {
		actSeed = 0
	}
	return resultCacheKey{key, mode, actSeed}
}

// ResultCache is a bounded, byte-accounted LRU of served Results. A
// nil *ResultCache is valid and disables caching (every method is a
// nil-safe no-op), which is how Options.ResultCacheBytes < 0 turns the
// feature off. Create one with NewResultCache.
type ResultCache struct {
	mu      sync.Mutex
	cap     int64
	bytes   int64
	entries map[resultCacheKey]*list.Element
	lru     list.List // *resultCacheEntry, front = most recent

	hits      *metrics.Counter // (mode, seed) cells served from cache
	misses    *metrics.Counter // cells swept because the cache lacked them
	evictions *metrics.Counter // entries dropped under the byte cap
	bytesG    *metrics.Gauge   // high-water accounted bytes
}

type resultCacheEntry struct {
	key  resultCacheKey
	res  sre.Result
	size int64
}

// NewResultCache returns a cache bounded at capBytes, feeding the
// given counters (all nil-safe). capBytes <= 0 returns nil — caching
// disabled.
func NewResultCache(capBytes int64, hits, misses, evictions *metrics.Counter, bytesG *metrics.Gauge) *ResultCache {
	if capBytes <= 0 {
		return nil
	}
	return &ResultCache{
		cap:       capBytes,
		entries:   map[resultCacheKey]*list.Element{},
		hits:      hits,
		misses:    misses,
		evictions: evictions,
		bytesG:    bytesG,
	}
}

// Lookup reads a request's cells at one activation seed, per cell:
// res holds, in request order, the cached result of every mode the
// cache has, and missing lists, in ascending order, the indexes of the
// modes it lacks (every index for a nil cache). A static mode is looked
// up in its one seed-independent cell (cellKey). Every hit refreshes its
// entry's recency. Lookup counts nothing: the caller tallies the read
// that answers the request.
func (c *ResultCache) Lookup(key BatchKey, modes []sre.Mode, actSeed uint64) (res []sre.Result, missing []int) {
	res = make([]sre.Result, len(modes))
	if c == nil {
		for i := range modes {
			missing = append(missing, i)
		}
		return res, missing
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range modes {
		el, ok := c.entries[cellKey(key, m, actSeed)]
		if !ok {
			missing = append(missing, i)
			continue
		}
		c.lru.MoveToFront(el)
		res[i] = el.Value.(*resultCacheEntry).res
	}
	return res, missing
}

// tally counts one answered request's cells: hits served from the
// cache, misses about to be swept. The server calls it once per
// request, after the cache read that decides what to sweep, so each
// answered request adds its mode count to the two counters.
func (c *ResultCache) tally(hits, misses int) {
	if c != nil {
		c.hits.Add(int64(hits))
		c.misses.Add(int64(misses))
	}
}

// Put caches one (mode, seed) cell of a completed sweep (a static
// mode's cell serves every seed; see cellKey), evicting the least
// recently used entries if the accounted bytes now exceed the cap. A
// result bigger than the whole cap is not cached. Re-putting an
// existing key refreshes its recency (the value is necessarily
// identical — results are deterministic).
func (c *ResultCache) Put(key BatchKey, mode sre.Mode, actSeed uint64, res sre.Result) {
	if c == nil {
		return
	}
	k := cellKey(key, mode, actSeed)
	size := resultSizeBytes(res)
	if size > c.cap {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[k] = c.lru.PushFront(&resultCacheEntry{key: k, res: res, size: size})
	c.bytes += size
	c.bytesG.Set(c.bytes)
	var evicted int64
	for c.bytes > c.cap {
		el := c.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*resultCacheEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.size
		evicted++
	}
	c.mu.Unlock()
	c.evictions.Add(evicted)
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the accounted size of the cached entries.
func (c *ResultCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// resultSizeBytes estimates a Result's resident size: the struct, its
// layer slice, and the strings. Good to a few pointers' worth — enough
// for the LRU's byte accounting, which needs ordering, not exactness.
func resultSizeBytes(r sre.Result) int64 {
	size := int64(unsafe.Sizeof(r)) + int64(len(r.Network))
	for i := range r.Layers {
		size += int64(unsafe.Sizeof(r.Layers[i])) + int64(len(r.Layers[i].Name))
	}
	return size + 64 // map entry + list element bookkeeping
}
