// Slice-mask plane cache: the second derivation layer on top of the
// window-code planes. DOF-mode phase 1 turns each sampled window's
// codes into per-(row block, bit slice) wordline masks
// (bitset.BuildSliceMasks) before counting OU occupancy — work that is
// identical across the DOF modes of one sweep and across repeated runs
// of a resident network, and that profiles as the single largest
// phase-1 cost. A CodePlanes therefore also caches the derived masks:
// one contiguous word plane per (sampled count, DAC width, slices per
// input) holding every window's masks, its per-(window, row block)
// non-empty-slice bitmaps, and per-slice popcounts, built once under
// sync.Once from the code plane and read lock-free ever after.
//
// The cached masks are exactly the words BuildSliceMasks would have
// produced per window, so phase-1 results are bit-identical with the
// cache on or off (golden tests enforce this through the existing
// cached-vs-uncached comparisons). Config.NoCodeCache opts out of this
// cache together with the code plane it derives from.
package core

import (
	"sync"

	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/metrics"
)

// maxCachedMaskWords bounds one mask plane's size (uint64 words;
// 64 MiB). Past the bound phase 1 falls back to building masks per
// window, which those runs paid before the cache existed.
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

// maskPlane is one built entry: a window-major structure-of-arrays
// flattening of every sampled window's slice masks. The mask words of
// (window wi, row block rb, slice s) start at index
// ((wi·rowBlocks+rb)·spi+s)·maxWords, with maxWords =
// Words64(XbarRows): padded to the full-tile word count so offsets are
// uniform, and laid out exactly like a phase-1 scratch's row-block mask
// block, so phase 1 reads either in place. nonEmpty and sliceNZ are
// indexed by the same (wi·rowBlocks+rb) and ((wi·rowBlocks+rb)·spi+s)
// keys.
type maskPlane struct {
	words    []uint64
	nonEmpty []uint64
	sliceNZ  []int32
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
// bound — phase 1 then builds masks per window as before.
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
		mp := &maskPlane{
			words:    make([]uint64, total),
			nonEmpty: make([]uint64, sampled*lay.RowBlocks),
			sliceNZ:  make([]int32, sampled*lay.RowBlocks*spi),
		}
		heads := make([][]uint64, spi)
		for wi := 0; wi < sampled; wi++ {
			codes := plane[wi*lay.Rows : (wi+1)*lay.Rows]
			for rb := 0; rb < lay.RowBlocks; rb++ {
				lo := rb * lay.XbarRows
				hi := lo + lay.TileRows(rb)
				w := bitset.Words64(hi - lo)
				base := (wi*lay.RowBlocks + rb) * spi
				for s := 0; s < spi; s++ {
					off := (base + s) * maxWords
					heads[s] = mp.words[off : off+w : off+w]
				}
				ne := bitset.BuildSliceMasks(codes[lo:hi], dacBits, heads)
				mp.nonEmpty[wi*lay.RowBlocks+rb] = ne
				for s := 0; s < spi; s++ {
					if ne&(1<<uint(s)) != 0 {
						mp.sliceNZ[base+s] = int32(bitset.CountWords(heads[s]))
					}
				}
			}
		}
		e.mp = mp
		size := int64(len(mp.words))*8 + int64(len(mp.nonEmpty))*8 + int64(len(mp.sliceNZ))*4
		m.bytes.Add(size)
		c.resident.Add(size)
	})
	return e.mp
}
