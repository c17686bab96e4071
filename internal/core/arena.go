// Per-worker scratch arenas: simulateLayer's transient state — the
// per-tile plan grid, phase-1 DOF batch slots, phase-2 tile
// accumulators, and each phase-1 chunk's code and mask scratch — is
// recycled through sync.Pools instead of being reallocated per call.
// A six-mode sweep calls simulateLayer 6·layers times and phase 1
// checks scratch out once per window chunk, so steady-state allocation
// drops by an order of magnitude while ownership stays strict: a
// scratch block is held by exactly one goroutine between get and
// release, and everything a later phase reads is either fully
// overwritten (work slots) or explicitly zeroed at checkout (tile
// plans, accumulators).
//
// The pools' New hooks are deliberately left nil so a miss is
// observable: sre_core_arena_gets_total counts checkouts,
// sre_core_arena_news_total counts the misses that had to allocate.
package core

import (
	"sync"

	"sre/internal/mapping"
	"sre/internal/metrics"
)

// arenaMetrics feeds the arena observability counters. Fields may be
// nil (metrics.Counter methods are nil-safe no-ops).
type arenaMetrics struct {
	gets, news *metrics.Counter
}

// tileAcc is one tile's phase-2 accumulator: the pipeline schedule
// totals and energy-relevant event counts phase 3 reduces serially.
type tileAcc struct {
	total    int64
	stalls   int64
	ouEvents int64
	drivenWL int64
	fetches  int64
	fetchE   float64
}

// layerScratch is one simulateLayer call's allocation block: the plan
// grid, DOF work slots, and tile accumulators, sized (and re-zeroed
// where required) per checkout.
type layerScratch struct {
	planBack []tilePlan
	planRows [][]tilePlan
	work     []batchWork
	accs     []tileAcc
}

var layerScratchPool sync.Pool

// getLayerScratch checks a scratch block out of the pool, allocating
// one on a miss.
func getLayerScratch(am arenaMetrics) *layerScratch {
	am.gets.Inc()
	if v := layerScratchPool.Get(); v != nil {
		return v.(*layerScratch)
	}
	am.news.Inc()
	return &layerScratch{}
}

func (ls *layerScratch) release() { layerScratchPool.Put(ls) }

// tilePlans returns a zeroed [rowBlocks][colBlocks] plan grid backed by
// one contiguous array. Zeroing matters: a recycled block may hold a
// previous run's plan pointers, and recordStaticOccupancy dispatches on
// which tilePlan fields are non-nil.
func (ls *layerScratch) tilePlans(rowBlocks, colBlocks int) [][]tilePlan {
	n := rowBlocks * colBlocks
	if cap(ls.planBack) < n {
		ls.planBack = make([]tilePlan, n)
	} else {
		ls.planBack = ls.planBack[:n]
		for i := range ls.planBack {
			ls.planBack[i] = tilePlan{}
		}
	}
	if cap(ls.planRows) < rowBlocks {
		ls.planRows = make([][]tilePlan, rowBlocks)
	}
	ls.planRows = ls.planRows[:rowBlocks]
	for rb := 0; rb < rowBlocks; rb++ {
		ls.planRows[rb] = ls.planBack[rb*colBlocks : (rb+1)*colBlocks]
	}
	return ls.planRows
}

// workSlots returns n batch-work slots. They are not cleared: phase 1
// writes every slot for every sampled window before phase 2 reads any,
// and on early cancellation the layer errors out before the read.
func (ls *layerScratch) workSlots(n int) []batchWork {
	if cap(ls.work) < n {
		ls.work = make([]batchWork, n)
	}
	ls.work = ls.work[:n]
	return ls.work
}

// tileAccs returns n zeroed tile accumulators (phase 2 accumulates
// into them, so stale totals would corrupt results).
func (ls *layerScratch) tileAccs(n int) []tileAcc {
	if cap(ls.accs) < n {
		ls.accs = make([]tileAcc, n)
		return ls.accs
	}
	ls.accs = ls.accs[:n]
	for i := range ls.accs {
		ls.accs[i] = tileAcc{}
	}
	return ls.accs
}

// p1Scratch is one phase-1 chunk's scratch block: the window code
// buffer, a one-window mask plane for windows without a cached one,
// the slice headers maskPlane.build cuts into it, and the Baseline
// scheme's OU table. The layout stamp (lay, spi) identifies the
// shapes; a recycled block with a matching stamp is reused as-is
// because build overwrites the whole window slot.
type p1Scratch struct {
	lay mapping.Layout
	spi int

	codes []uint32
	mp    *maskPlane
	heads [][]uint64
	ouTab []int32 // ouTab[nz] = ceil(nz/SWL), nz in [0, XbarRows]
}

var p1ScratchPool sync.Pool

// getP1Scratch checks a phase-1 scratch block out of the pool,
// (re)shaping it when the layout stamp differs from the last use.
func getP1Scratch(lay mapping.Layout, spi int, am arenaMetrics) *p1Scratch {
	am.gets.Inc()
	s, _ := p1ScratchPool.Get().(*p1Scratch)
	if s == nil {
		am.news.Inc()
		s = &p1Scratch{}
	}
	if s.lay != lay || s.spi != spi {
		s.shape(lay, spi)
	}
	return s
}

func (s *p1Scratch) release() { p1ScratchPool.Put(s) }

// shape sizes every buffer for the given layout.
func (s *p1Scratch) shape(lay mapping.Layout, spi int) {
	s.lay, s.spi = lay, spi
	s.codes = make([]uint32, lay.Rows)
	s.mp = newMaskPlane(1, lay, spi)
	s.heads = make([][]uint64, spi)
	// Baseline-scheme phase 1 computes ceil(nz/S_WL) for every
	// non-empty slice; a lookup table turns that hardware division into
	// an L1 load. nz never exceeds a tile's rows.
	s.ouTab = make([]int32, lay.XbarRows+1)
	for nz := 1; nz <= lay.XbarRows; nz++ {
		s.ouTab[nz] = int32((nz + lay.SWL - 1) / lay.SWL)
	}
}
