// Window-code plane cache: the activation-side analogue of
// compress.PlanSet. RunAll's modes (and repeated SimulateLayer
// calls) all consume the same sampled window codes, but before this
// cache each mode re-synthesized them from the ActivationSource —
// per-window RNG and transcendentals for workload.SyntheticActs,
// im2col gathers for TensorSource — once per mode. A Layer that
// carries a CodePlanes materializes each sampled-window count's codes
// once into a contiguous plane and shares it read-only across modes,
// workers, and runs.
package core

import (
	"sync"
	"sync/atomic"

	"sre/internal/metrics"
)

// maxCachedPlaneElems bounds one cached plane's size (uint32 elements;
// 64 MiB). Full-scope runs over ImageNet-size layers with sampling
// disabled would otherwise pin hundreds of megabytes of codes per
// network; past the bound the simulator falls back to the per-call
// source reads, which those runs already paid before the cache.
const maxCachedPlaneElems = 16 << 20

// CodePlanes caches a layer's sampled window codes, keyed by the
// sampled-window count (MaxWindows changes which windows are read, so
// each distinct count is its own plane). Like compress.PlanSet,
// entries are created under a mutex and built once via sync.Once, so
// concurrent modes racing for a key build it exactly once and read it
// lock-free afterwards. Planes are read-only after build.
type CodePlanes struct {
	mu      sync.Mutex
	entries map[int]*codePlaneEntry
	// masks caches the slice-mask planes DOF-mode phase 1 derives from
	// the code planes (see maskplane.go), under the same mutex and the
	// same build-once discipline.
	masks map[maskKey]*maskPlaneEntry
	// resident tracks the bytes of every plane built or seeded so far
	// (code planes and derived slice-mask planes), so a holder can
	// account the cache's memory without racing the lazy builds.
	resident atomic.Int64
}

// ResidentBytes returns the bytes of all planes currently cached —
// window-code planes plus derived slice-mask planes. It grows as runs
// lazily build planes and never shrinks; the serve-layer registry folds
// it into its per-network size estimate.
func (c *CodePlanes) ResidentBytes() int64 {
	if c == nil {
		return 0
	}
	return c.resident.Load()
}

type codePlaneEntry struct {
	once  sync.Once
	plane []uint32 // [sampled][rows], window-major
}

// NewCodePlanes returns an empty cache ready to attach to a Layer.
func NewCodePlanes() *CodePlanes { return &CodePlanes{} }

// codeCacheMetrics carries the cache observability counters (nil-safe,
// like compress.CacheMetrics). Hits/misses split lookups by whether the
// sampled-count entry already existed; builds counts plane
// constructions; bytes accumulates the resident size of built planes.
type codeCacheMetrics struct {
	hits, misses, builds, bytes *metrics.Counter
}

// SampledWindows returns how many of a layer's windows a run with the
// given cap actually simulates — the deterministic sampling rule shared
// by the simulator and snapshot serialization (which persists the code
// plane for exactly this count).
func SampledWindows(windows, maxWindows int) int {
	if maxWindows > 0 && windows > maxWindows {
		return maxWindows
	}
	return windows
}

// Materialize returns the layer's [sampled][rows] code plane, building
// and caching it like a simulation run would (nil when the plane would
// exceed the cache's size bound). Snapshot writing uses it to persist
// the plane a loaded network's first run will want.
func (c *CodePlanes) Materialize(src ActivationSource, rows, sampled, windows int) []uint32 {
	return c.plane(src, rows, sampled, windows, codeCacheMetrics{})
}

// Seed installs a pre-materialized code plane for the given sampled
// count — the snapshot-load path. The plane must be window-major
// [sampled][rows] as Materialize produces; seeding an already-present
// count is a no-op (first installation wins, matching the cache's
// build-once semantics). An out-of-bound plane is ignored, mirroring
// what plane() would have refused to cache.
func (c *CodePlanes) Seed(sampled, rows int, plane []uint32) {
	if sampled <= 0 || rows <= 0 || len(plane) != sampled*rows ||
		int64(rows)*int64(sampled) > maxCachedPlaneElems {
		return
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[int]*codePlaneEntry)
	}
	e := c.entries[sampled]
	if e == nil {
		e = &codePlaneEntry{}
		c.entries[sampled] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.plane = plane
		c.resident.Add(int64(len(plane)) * 4)
	})
}

// plane returns the cached [sampled][rows] code plane, building it on
// first use by reading every sampled window from src once. Returns nil
// when the plane would exceed the size bound; phase 1 then reads the
// source per window.
func (c *CodePlanes) plane(src ActivationSource, rows, sampled, windows int, m codeCacheMetrics) []uint32 {
	if int64(rows)*int64(sampled) > maxCachedPlaneElems {
		return nil
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[int]*codePlaneEntry)
	}
	e := c.entries[sampled]
	if e == nil {
		e = &codePlaneEntry{}
		c.entries[sampled] = e
		m.misses.Inc()
	} else {
		m.hits.Inc()
	}
	c.mu.Unlock()
	e.once.Do(func() {
		m.builds.Inc()
		p := make([]uint32, sampled*rows)
		for wi := 0; wi < sampled; wi++ {
			src.WindowCodes(wi*windows/sampled, p[wi*rows:(wi+1)*rows])
		}
		e.plane = p
		m.bytes.Add(int64(len(p)) * 4)
		c.resident.Add(int64(len(p)) * 4)
	})
	return e.plane
}
