// Slice-mask plane cache: the second derivation layer on top of the
// window-code planes. DOF-mode phase 1 turns each sampled window's
// codes into per-(row block, bit slice) wordline masks
// (bitset.BuildSliceMasks) before counting OU occupancy — work that is
// identical across the DOF modes of one sweep and across repeated runs
// of a resident network. A CodePlanes therefore also caches the
// derived masks: one contiguous word plane per (sampled count, DAC
// width, slices per input) holding every window's masks and its
// per-(window, row block) non-empty-slice bitmaps, built once under
// sync.Once from the code plane and read lock-free ever after.
//
// A window without a cached plane builds its masks into a one-window
// plane in phase 1's scratch with the same maskPlane.build, so
// phase-1 results are bit-identical with the cache or without it
// (golden tests enforce this through the cached-vs-uncached
// comparisons).
package core

import (
	"sync"

	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/metrics"
)

// maxCachedMaskWords bounds one mask plane's size (uint64 words;
// 64 MiB). Past the bound phase 1 builds each window's masks as it
// reads the window, which those runs paid before the cache existed.
const maxCachedMaskWords = 8 << 20

// maskKey identifies one derived mask plane. The layout is fixed per
// Layer (it comes from the compression structure), so only the
// run-variable inputs key the entry: the sampled-window count selects
// which code plane the masks derive from, and the quantization pair
// (DACBits, SlicesPerInput) selects how codes split into slices.
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
// (nil-safe). The algebra mirrors the code cache's: for a fixed
// workload, misses == builds == distinct (sampled, quant) keys and
// hits == DOF-mode lookups − builds, deterministically.
type maskCacheMetrics struct {
	hits, misses, builds, bytes *metrics.Counter
}

// maskPlane returns the cached slice-mask plane derived from the
// layer's code plane (which must hold sampled·lay.Rows codes), building
// it on first use. Returns nil when the plane would exceed the size
// bound; phase 1 then builds each window's masks in its scratch.
func (c *CodePlanes) maskPlane(plane []uint32, lay mapping.Layout, sampled, dacBits, spi int, m maskCacheMetrics) *maskPlane {
	maxWords := bitset.Words64(lay.XbarRows)
	total := sampled * lay.RowBlocks * spi * maxWords
	if total == 0 || int64(total) > maxCachedMaskWords {
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
		for wi := 0; wi < sampled; wi++ {
			mp.build(wi, plane[wi*lay.Rows:(wi+1)*lay.Rows], lay, dacBits, heads)
		}
		e.mp = mp
		size := int64(len(mp.words)+len(mp.nonEmpty)) * 8
		m.bytes.Add(size)
		c.resident.Add(size)
	})
	return e.mp
}
