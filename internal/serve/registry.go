// Network registry: the resident-model half of sreserved. Building a
// Table 2 network (workload synthesis + compression structures) costs
// orders of magnitude more than simulating one request against it, and
// the built Network is immutable and safe for unlimited concurrent
// runs (see sre.Network's thread-safety contract), so the server keeps
// one instance per (network, prune, build-config) key and builds it
// lazily under singleflight: however many requests race for a cold
// key, exactly one goroutine builds while the rest wait on the entry.
//
// Residency is byte-bounded: each built network reports a SizeBytes
// estimate, and when a capacity is set (Bound) the registry evicts the
// least-recently-used unpinned networks once the accounted total
// exceeds it — so a long-lived daemon survives adversarial key churn
// instead of growing without bound. Entries in use by a sweep are
// pinned by refcount and never evicted; the most recently used entry
// is also kept, so the cap can overshoot by at most one network while
// traffic is in flight.
package serve

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sre"
	"sre/internal/metrics"
)

// Key identifies one resident network: the build-scoped part of a
// request. Run-scoped knobs (MaxWindows, IndexBits, workers) are
// per-run options on the shared instance and do not fork a new build.
type Key struct {
	Network        string
	Prune          sre.PruneStyle
	Crossbar       int
	OUHeight       int
	OUWidth        int
	WeightBits     int
	ActivationBits int
	CellBits       int
	DACBits        int
	SliceCap       int
	Seed           uint64
}

// KeyFor extracts the build-scoped fields of cfg into a Key.
func KeyFor(network string, prune sre.PruneStyle, cfg sre.Config) Key {
	return Key{
		Network:        network,
		Prune:          prune,
		Crossbar:       cfg.CrossbarSize,
		OUHeight:       cfg.OUHeight,
		OUWidth:        cfg.OUWidth,
		WeightBits:     cfg.WeightBits,
		ActivationBits: cfg.ActivationBits,
		CellBits:       cfg.CellBits,
		DACBits:        cfg.DACBits,
		SliceCap:       cfg.SliceCap,
		Seed:           cfg.Seed,
	}
}

// Config reconstitutes the build config the key stands for; run-scoped
// fields stay at their defaults (they are per-request).
func (k Key) Config() sre.Config {
	cfg := sre.DefaultConfig()
	cfg.CrossbarSize = k.Crossbar
	cfg.OUHeight, cfg.OUWidth = k.OUHeight, k.OUWidth
	cfg.WeightBits, cfg.ActivationBits = k.WeightBits, k.ActivationBits
	cfg.CellBits, cfg.DACBits = k.CellBits, k.DACBits
	cfg.SliceCap = k.SliceCap
	cfg.Seed = k.Seed
	return cfg
}

func (k Key) String() string {
	s := fmt.Sprintf("%s/%s/xbar%d/ou%dx%d/w%da%d/cell%d/dac%d/seed%d",
		k.Network, k.Prune, k.Crossbar, k.OUHeight, k.OUWidth,
		k.WeightBits, k.ActivationBits, k.CellBits, k.DACBits, k.Seed)
	if k.SliceCap > 0 {
		s += fmt.Sprintf("/slicecap%d", k.SliceCap)
	}
	return s
}

// Registry holds the resident networks. The zero value is not usable;
// create one with NewRegistry.
type Registry struct {
	mu      sync.Mutex
	entries map[Key]*regEntry
	lru     list.List // ready entries, *regEntry values, front = most recent
	cap     int64     // <= 0: unbounded (no eviction)
	bytes   int64     // accounted SizeBytes of ready entries
	builds  atomic.Int64
	buildsC *metrics.Counter // mirrors builds into /metrics (nil-safe)

	evictions    *metrics.Counter // networks evicted under the byte cap
	evictedBytes *metrics.Counter // their summed size estimates
	bytesGauge   *metrics.Gauge   // high-water accounted resident bytes

	snapshotDir    string
	snapshotHits   *metrics.Counter // cold keys satisfied from the snapshot dir
	snapshotMisses *metrics.Counter // cold keys that had to build (then persisted)
}

type regEntry struct {
	key   Key
	ready chan struct{} // closed once net/err are final
	net   *sre.Network
	err   error
	size  int64         // accounted bytes; refreshed when pins drop
	refs  int           // pinned users; guarded by Registry.mu
	elem  *list.Element // position in lru; nil while building or after eviction
}

// NewRegistry returns an empty, unbounded registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[Key]*regEntry{}}
}

// Bound caps the registry's accounted resident bytes at capBytes
// (<= 0 leaves it unbounded). Past the cap, the least-recently-used
// networks that no caller has pinned are evicted; evictions counts
// them, evictedBytes their summed size estimates, and bytesGauge
// records the high-water accounted total (all nil-safe). Call before
// serving begins (it is not synchronized against Get).
func (r *Registry) Bound(capBytes int64, evictions, evictedBytes *metrics.Counter, bytesGauge *metrics.Gauge) {
	r.cap = capBytes
	r.evictions = evictions
	r.evictedBytes = evictedBytes
	r.bytesGauge = bytesGauge
}

// Get returns the resident network for key, building it on first use.
// Concurrent callers with the same cold key trigger exactly one build;
// everyone — the caller that found the key cold included — waits until
// the detached build goroutine finishes or their own context ends, so
// any caller whose context expires mid-build gets ctx.Err() while the
// build runs to completion for the survivors. An abandoned wait never
// poisons the entry; failed builds are not cached (the entry is
// dropped so a later request retries instead of replaying a stale
// error).
//
// On success the entry is pinned against eviction until the returned
// release func is called (it is idempotent; callers must call it
// exactly when they are done running against the network).
func (r *Registry) Get(ctx context.Context, key Key) (*sre.Network, func(), error) {
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok {
		e = &regEntry{key: key, ready: make(chan struct{})}
		r.entries[key] = e
		r.mu.Unlock()
		// Detached: the build survives this caller's context, so a
		// deadline that expires mid-build neither cancels the work nor
		// poisons the entry for the waiters that outlive it.
		go r.build(e)
	} else {
		r.mu.Unlock()
	}
	select {
	case <-e.ready:
		if e.err != nil {
			return nil, nil, e.err
		}
		return e.net, r.pin(e), nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// build runs the singleflight network build for e and publishes the
// outcome: success accounts the entry in the LRU (possibly evicting
// colder entries), failure drops it.
func (r *Registry) build(e *regEntry) {
	r.builds.Add(1)
	r.buildsC.Inc()
	opts := []sre.Option{sre.WithConfig(e.key.Config()), sre.WithPrune(e.key.Prune)}
	if r.snapshotDir != "" {
		opts = append(opts, sre.WithSnapshotDir(r.snapshotDir))
	}
	e.net, e.err = sre.Load(e.key.Network, opts...)
	if r.snapshotDir != "" && e.err == nil {
		if e.net.SnapshotLoaded() {
			r.snapshotHits.Inc()
		} else {
			r.snapshotMisses.Inc()
		}
	}
	r.mu.Lock()
	if e.err != nil {
		delete(r.entries, e.key)
	} else {
		e.size = e.net.SizeBytes()
		e.elem = r.lru.PushFront(e)
		r.bytes += e.size
		r.bytesGauge.Set(r.bytes)
		r.evictLocked()
	}
	r.mu.Unlock()
	close(e.ready)
}

// pin marks e in use (eviction skips pinned entries) and returns the
// idempotent release. Releasing refreshes the entry's size estimate —
// runs warm the network's lazy plane caches, so the accounted bytes
// grow with it — and re-checks the cap.
func (r *Registry) pin(e *regEntry) func() {
	r.mu.Lock()
	e.refs++
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
	}
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			e.refs--
			if e.elem != nil {
				if sz := e.net.SizeBytes(); sz != e.size {
					r.bytes += sz - e.size
					e.size = sz
					r.bytesGauge.Set(r.bytes)
				}
				r.evictLocked()
			}
			r.mu.Unlock()
		})
	}
}

// evictLocked drops least-recently-used unpinned entries until the
// accounted bytes fit the cap. The front (most recently used) entry is
// never evicted — its waiters may not have pinned it yet, and a cap
// smaller than one network must still leave the current working
// network resident — so the cap can overshoot by one network. Called
// with r.mu held.
func (r *Registry) evictLocked() {
	if r.cap <= 0 {
		return
	}
	for r.bytes > r.cap {
		evicted := false
		for el := r.lru.Back(); el != nil && el != r.lru.Front(); el = el.Prev() {
			e := el.Value.(*regEntry)
			if e.refs > 0 {
				continue
			}
			r.lru.Remove(el)
			e.elem = nil
			delete(r.entries, e.key)
			r.bytes -= e.size
			r.evictions.Inc()
			r.evictedBytes.Add(e.size)
			evicted = true
			break
		}
		if !evicted {
			return // everything colder is pinned: overshoot until released
		}
	}
}

// UseSnapshots makes cold keys consult (and populate) a snapshot
// directory instead of always building, still under the same
// singleflight — however many requests race for a cold key, the
// directory is consulted exactly once. hits counts cold keys loaded
// from dir, misses cold keys that built fresh; both are nil-safe.
// Call before serving begins (it is not synchronized against Get).
func (r *Registry) UseSnapshots(dir string, hits, misses *metrics.Counter) {
	r.snapshotDir = dir
	r.snapshotHits = hits
	r.snapshotMisses = misses
}

// CountBuilds mirrors the build count into a metrics counter
// (nil-safe), so "exactly one build per key" is checkable from
// /metrics, not just /v1/networks. Call before serving begins (it is
// not synchronized against Get).
func (r *Registry) CountBuilds(c *metrics.Counter) { r.buildsC = c }

// Builds returns how many network builds the registry has started —
// the singleflight invariant under test: N concurrent same-key
// requests must move this by exactly 1.
func (r *Registry) Builds() int64 { return r.builds.Load() }

// ResidentBytes returns the accounted size of the currently resident
// (ready) networks.
func (r *Registry) ResidentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// ResidentInfo is one resident network's observability row: its key,
// the accounted size estimate, and how many callers currently pin it
// (sweeps running against it — pinned entries are never evicted).
type ResidentInfo struct {
	Key       Key
	SizeBytes int64
	Pinned    int
}

// Resident lists the resident (successfully built) entries with their
// accounted sizes and pin counts, sorted by key String form for stable
// /v1/networks output.
func (r *Registry) Resident() []ResidentInfo {
	r.mu.Lock()
	out := make([]ResidentInfo, 0, len(r.entries))
	for _, e := range r.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				out = append(out, ResidentInfo{Key: e.key, SizeBytes: e.size, Pinned: e.refs})
			}
		default: // still building; not resident yet
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Keys lists the resident (successfully built) keys, sorted by their
// String form for stable /v1/networks output.
func (r *Registry) Keys() []Key {
	r.mu.Lock()
	keys := make([]Key, 0, len(r.entries))
	for k, e := range r.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				keys = append(keys, k)
			}
		default: // still building; not resident yet
		}
	}
	r.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}
