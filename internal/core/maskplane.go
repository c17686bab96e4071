// Slice-mask plane cache: a layer's only activation cache. DOF-mode
// phase 1 turns each sampled window's codes into per-(row block, bit
// slice) wordline masks (bitset.BuildSliceMasks) — the vectors the
// paper's Wordline Vector Generator (Fig. 15) drives — before counting
// OU occupancy. That work is identical across the DOF modes of one
// sweep and across repeated runs of a resident network, so a Layer
// that carries a MaskPlanes caches it: one contiguous word plane per
// (sampled count, DAC width, slices per input) holding every window's
// masks and its per-(window, row block) non-empty-slice bitmaps, built
// once under sync.Once straight from the layer's own source and read
// lock-free ever after.
//
// A window without a cached plane (no cache, a plane past the size
// bound, or a substituted source) builds its masks into a one-window
// plane in phase 1's scratch with the same maskPlane.build, so
// phase-1 results are bit-identical with the cache or without it
// (golden tests enforce this through the cached-vs-uncached
// comparisons).
package core

import (
	"sync"
	"sync/atomic"

	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/metrics"
)

// maxCachedMaskWords bounds one mask plane's size (uint64 words;
// 64 MiB). Past the bound phase 1 builds each window's masks as it
// reads the window, which those runs paid before the cache existed.
const maxCachedMaskWords = 8 << 20

// MaskPlanes caches a layer's slice-mask planes. Like compress.PlanSet,
// entries are created under a mutex and built once via sync.Once, so
// concurrent modes racing for a key build it exactly once and read it
// lock-free afterwards. Planes are read-only after build.
type MaskPlanes struct {
	mu    sync.Mutex
	masks map[maskKey]*maskPlaneEntry
	// resident tracks the bytes of every plane built so far, so a
	// holder can account the cache's memory without racing the lazy
	// builds.
	resident atomic.Int64
}

// NewMaskPlanes returns an empty cache ready to attach to a Layer.
func NewMaskPlanes() *MaskPlanes { return &MaskPlanes{} }

// ResidentBytes returns the bytes of all planes currently cached. It
// grows as runs lazily build planes and never shrinks; the serve-layer
// registry folds it into its per-network size estimate.
func (c *MaskPlanes) ResidentBytes() int64 {
	if c == nil {
		return 0
	}
	return c.resident.Load()
}

// SampledWindows returns how many of a layer's windows a run with the
// given cap actually simulates — the deterministic sampling rule of
// the simulator.
func SampledWindows(windows, maxWindows int) int {
	if maxWindows > 0 && windows > maxWindows {
		return maxWindows
	}
	return windows
}

// maskKey identifies one mask plane. The layout is fixed per Layer (it
// comes from the compression structure), so only the run-variable
// inputs key the entry: the sampled-window count selects which windows
// the plane holds, and the quantization pair (DACBits, SlicesPerInput)
// selects how codes split into slices.
type maskKey struct {
	sampled, dacBits, spi int
}

type maskPlaneEntry struct {
	once sync.Once
	mp   *maskPlane
}

// maskPlane is a window-major structure-of-arrays flattening of
// slice masks: a cache entry holds every sampled window's, a phase-1
// scratch one window's. The mask words of (window slot wi, row block
// rb, slice s) start at index ((wi·rowBlocks+rb)·spi+s)·maxWords, with
// maxWords = Words64(XbarRows): padded to the full-tile word count so
// offsets are uniform, which lets bitset.TileOUs take a row block's
// slices as one strided block. nonEmpty is indexed by the same
// (wi·rowBlocks+rb) key.
type maskPlane struct {
	words    []uint64
	nonEmpty []uint64
}

// newMaskPlane allocates a zeroed plane of the given window slots.
func newMaskPlane(slots int, lay mapping.Layout, spi int) *maskPlane {
	n := slots * lay.RowBlocks
	return &maskPlane{
		words:    make([]uint64, n*spi*bitset.Words64(lay.XbarRows)),
		nonEmpty: make([]uint64, n),
	}
}

// build fills window slot's masks and non-empty bitmaps from the
// window's lay.Rows codes in one BuildSliceMasks sweep per row block;
// heads is len-spi header scratch. Every field of the slot is
// overwritten, so a recycled plane needs no clearing: the padding
// words past a short row block's tail are never written and stay
// zero.
func (mp *maskPlane) build(slot int, codes []uint32, lay mapping.Layout, dacBits int, heads [][]uint64) {
	maxWords := bitset.Words64(lay.XbarRows)
	for rb := 0; rb < lay.RowBlocks; rb++ {
		lo := rb * lay.XbarRows
		hi := lo + lay.TileRows(rb)
		w := bitset.Words64(hi - lo)
		base := (slot*lay.RowBlocks + rb) * len(heads)
		for s := range heads {
			off := (base + s) * maxWords
			heads[s] = mp.words[off : off+w : off+w]
		}
		mp.nonEmpty[slot*lay.RowBlocks+rb] = bitset.BuildSliceMasks(codes[lo:hi], dacBits, heads)
	}
}

// maskCacheMetrics carries the mask-cache observability counters
// (nil-safe). For a fixed workload, misses == builds == distinct
// (sampled, quant) keys and hits == lookups − builds,
// deterministically.
type maskCacheMetrics struct {
	hits, misses, builds, bytes *metrics.Counter
}

// maskPlane returns the cached slice-mask plane of the layer's own
// source src, building it on first use: each sampled window is read
// into a local buffer in phase 1's wi·windows/sampled order and turned
// into masks. Returns nil when the plane would exceed the size bound;
// phase 1 then builds each window's masks in its scratch.
func (c *MaskPlanes) maskPlane(src ActivationSource, lay mapping.Layout, sampled, windows, dacBits, spi int, m maskCacheMetrics) *maskPlane {
	perWindow := lay.RowBlocks * spi * bitset.Words64(lay.XbarRows)
	if perWindow == 0 || sampled == 0 || sampled > maxCachedMaskWords/perWindow {
		return nil
	}
	key := maskKey{sampled, dacBits, spi}
	c.mu.Lock()
	if c.masks == nil {
		c.masks = make(map[maskKey]*maskPlaneEntry)
	}
	e := c.masks[key]
	if e == nil {
		e = &maskPlaneEntry{}
		c.masks[key] = e
		m.misses.Inc()
	} else {
		m.hits.Inc()
	}
	c.mu.Unlock()
	e.once.Do(func() {
		m.builds.Inc()
		mp := newMaskPlane(sampled, lay, spi)
		heads := make([][]uint64, spi)
		codes := make([]uint32, lay.Rows)
		for wi := 0; wi < sampled; wi++ {
			src.WindowCodes(wi*windows/sampled, codes)
			mp.build(wi, codes, lay, dacBits, heads)
		}
		e.mp = mp
		size := int64(len(mp.words)+len(mp.nonEmpty)) * 8
		m.bytes.Add(size)
		c.resident.Add(size)
	})
	return e.mp
}
