// Package metrics is the simulator's run-metrics observability layer: a
// zero-dependency registry of counters, gauges, and fixed-bucket
// histograms that the hot simulation loops can feed without perturbing
// the bit-identical Cycles/Energy guarantee.
//
// Layout: the Registry hands out Shards — one per unit of work, such as
// a simulated layer (Registry.Shard is called at setup, never inside the
// hot loop). Each shard owns its cells, so the hot-path operations
// (Counter.Add, Histogram.Observe, Gauge.Set) are atomic adds on
// shard-private cache lines: no locks, no allocations, no cross-shard
// contention. Cells use atomics so that a Snapshot taken while a run is
// still writing (e.g. a /metrics scrape during a sweep) is race-free.
//
// Lifetime: when its work ends, a shard is handed back with
// Registry.Release, which folds its cells into the registry's running
// totals and stops tracking it. The registry therefore holds only the
// shards of work in flight, and a Snapshot costs the same after a
// million runs as after one. The fold and the Snapshot merge both run
// under the registry lock, so a concurrent Snapshot sees every shard
// exactly once: either still live or already folded.
//
// Merge: Snapshot folds every shard — counters and histogram buckets
// sum (integer addition, order-independent), gauges take the maximum —
// so the merged snapshot of a fixed set of observations does not depend
// on how they were sharded, on the order shards were released, or on
// whether they were released at all. A metric that itself measures the
// scheduling (the simulator's sre_parallel_* gauges, its arena pool
// misses) differs between identical runs all the same. Enabling metrics
// never feeds back into the simulation itself.
//
// Naming: metric names may embed Prometheus-style labels directly,
// e.g. "sre_core_ou_activations_total{mode=\"orc+dof\"}". The JSON
// snapshot uses the full string as the key; the Prometheus writer
// splits base name and label set so histogram bucket labels compose.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry collects shards and merges them into Snapshots. The zero
// value is not usable; create one with NewRegistry. A nil *Registry is
// valid everywhere and disables collection.
type Registry struct {
	mu     sync.Mutex
	live   map[*Shard]struct{} // shards handed out and not yet released
	folded *Shard              // the summed cells of every released shard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{live: map[*Shard]struct{}{}, folded: newShard()}
}

func newShard() *Shard {
	return &Shard{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Shard returns a new shard registered with r, or nil for a nil
// registry (every Shard operation is nil-safe). Call it at setup — it
// takes the registry lock — keep the result for the hot loop, and hand
// it back with Release when the work it meters is done.
func (r *Registry) Shard() *Shard {
	if r == nil {
		return nil
	}
	s := newShard()
	r.mu.Lock()
	r.live[s] = struct{}{}
	r.mu.Unlock()
	return s
}

// Release folds s's cells into r's running totals and stops tracking
// s, so later snapshots read the totals instead of the shard. Call it
// once nothing writes to s any more: a write after Release is lost. A
// nil registry or shard, or a shard already released, is a no-op.
func (r *Registry) Release(s *Shard) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[s]; !ok {
		return
	}
	delete(r.live, s)
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, c := range s.counters {
		r.folded.Counter(name).Add(c.v.Load())
	}
	for name, g := range s.gauges {
		r.folded.Gauge(name).Set(g.v.Load())
	}
	for name, h := range s.hists {
		f := r.folded.Histogram(name, h.bounds)
		for i := range h.buckets {
			f.buckets[i].Add(h.buckets[i].Load())
		}
		f.sum.Add(h.sum.Load())
		f.count.Add(h.count.Load())
	}
}

// Shard is one unit of work's private slice of the registry. Cell lookup
// (Counter, Gauge, Histogram) is setup-time work guarded by the shard's
// own mutex; the returned cells are the hot-path handles.
type Shard struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Counter returns the shard's counter cell for name, creating it on
// first use. Returns nil (a valid no-op cell) on a nil shard.
func (s *Shard) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters[name]
	if c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the shard's gauge cell for name, creating it on first
// use. Returns nil (a valid no-op cell) on a nil shard.
func (s *Shard) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the shard's histogram cell for name with the given
// ascending upper bounds (an implicit +Inf bucket is appended), creating
// it on first use. Every shard must use identical bounds for one name.
// Returns nil (a valid no-op cell) on a nil shard.
func (s *Shard) Histogram(name string, bounds []int64) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hists[name]
	if h == nil {
		h = &Histogram{
			bounds:  append([]int64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		s.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing shard-private cell. All methods
// are nil-safe no-ops so disabled metrics cost one predictable branch.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a high-water-mark cell: Set records the maximum value ever
// seen, which makes the cross-shard merge (max) deterministic. All
// methods are nil-safe no-ops.
type Gauge struct{ v atomic.Int64 }

// Set raises the gauge to v if v exceeds the current value (gauges
// start at zero and record non-negative values).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram is a fixed-bucket shard-private histogram of int64
// observations. All methods are nil-safe no-ops.
type Histogram struct {
	bounds  []int64 // ascending upper bounds; bucket i counts v <= bounds[i]
	buckets []atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one observation of v.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations of v — the hot loops use it
// to fold e.g. "k full OUs of occupancy S_WL" into one call.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(n)
	h.sum.Add(v * n)
	h.count.Add(n)
}

// AddBuckets records observations already sorted into buckets:
// counts[i] more in bucket i (the last entry is the +Inf bucket), with
// values totalling sum. The histogram ends up exactly as after the
// ObserveN calls those observations stand for, so a hot loop can tally
// by bucket and record once. counts must hold one entry per bucket,
// len(bounds)+1.
func (h *Histogram) AddBuckets(counts []int64, sum int64) {
	if h == nil {
		return
	}
	if len(counts) != len(h.buckets) {
		panic("metrics: AddBuckets bucket count mismatch")
	}
	var n int64
	for i, c := range counts {
		if c != 0 {
			h.buckets[i].Add(c)
			n += c
		}
	}
	h.sum.Add(sum)
	h.count.Add(n)
}

// Snapshot is the merge of every shard, released or live. Maps are keyed by
// the full metric name (labels included); encoding/json sorts map keys,
// so the serialized form is stable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one merged histogram. Counts[i] holds the
// observations v <= Bounds[i]; the final element of Counts is the
// overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot merges the folded totals of every released shard with every
// live shard: counters and histogram buckets sum, gauges take the
// maximum. Safe to call while shards are still being written (the
// result is then a point-in-time view); neither the merge order nor
// which shards were already released affects the result. A nil
// registry returns nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	out := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out.merge(r.folded)
	for sh := range r.live {
		out.merge(sh)
	}
	return out
}

// merge folds sh's cells into s: counters and histogram buckets sum,
// gauges take the maximum (a gauge cell that exists is reported even at
// zero).
func (s *Snapshot) merge(sh *Shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for name, c := range sh.counters {
		s.Counters[name] += c.v.Load()
	}
	for name, g := range sh.gauges {
		if v := g.v.Load(); v > s.Gauges[name] || !hasKey(s.Gauges, name) {
			s.Gauges[name] = v
		}
	}
	for name, h := range sh.hists {
		hs, ok := s.Histograms[name]
		if !ok {
			hs = HistogramSnapshot{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: make([]int64, len(h.buckets)),
			}
		}
		for i := range h.buckets {
			hs.Counts[i] += h.buckets[i].Load()
		}
		hs.Sum += h.sum.Load()
		hs.Count += h.count.Load()
		s.Histograms[name] = hs
	}
}

func hasKey(m map[string]int64, k string) bool { _, ok := m[k]; return ok }

// Names returns every metric name in the snapshot, sorted.
func (s *Snapshot) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
