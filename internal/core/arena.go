// Per-worker scratch arenas: simulateLayer's transient state — the
// per-tile plan grid, phase-1 DOF batch slots, phase-2 tile
// accumulators, and each phase-1 worker's mask/count scratch — is
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

	"sre/internal/bitset"
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
// where required) per checkout. The kernel and OCC paths always run on
// a pooled block; the scalar reference path keeps its historical fresh
// allocations.
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

// p1Scratch is one phase-1 worker's scratch block: the window code
// buffer, the (row block, slice) mask plane and its per-block headers,
// the per-group count buffer and occupancy tally of metered runs, and
// the per-slice row counts of Baseline-scheme runs. backing lays row
// block rb's masks out as one block, slice s at (rb·spi+s)·maxWords
// with maxWords = Words64(XbarRows), the layout of the cached mask
// plane too, so an unmetered run hands either block to bitset.TileOUs
// as is; the headers in masks cut the same words per slice for
// BuildSliceMasks. The layout stamp (lay, spi) identifies the shapes;
// a recycled block with a matching stamp is reused as-is because every
// buffer is fully overwritten per window (BuildSliceMasks rewrites
// each mask's words, CountAndPlanes rewrites the counts) and the tally
// is zeroed by the flush that ends every chunk.
type p1Scratch struct {
	lay mapping.Layout
	spi int

	codes    []uint32
	backing  []uint64
	masks    [][][]uint64 // [rb][s] -> word mask into backing
	nonEmpty []uint64
	counts   []int
	sliceNZ  []int
	ouTab    []int32 // ouTab[nz] = ceil(nz/SWL), nz in [0, XbarRows]
	occTally []int64 // occTally[nz] = groups that drove nz rows this chunk
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

// shape sizes every buffer for the given layout. Mask headers are cut
// from one backing array exactly like the pre-arena per-shard setup.
func (s *p1Scratch) shape(lay mapping.Layout, spi int) {
	s.lay, s.spi = lay, spi
	s.codes = make([]uint32, lay.Rows)
	maxWords := bitset.Words64(lay.XbarRows)
	s.backing = make([]uint64, lay.RowBlocks*spi*maxWords)
	s.masks = make([][][]uint64, lay.RowBlocks)
	for rb := range s.masks {
		s.masks[rb] = make([][]uint64, spi)
		words := bitset.Words64(lay.TileRows(rb))
		for sl := 0; sl < spi; sl++ {
			off := (rb*spi + sl) * maxWords
			s.masks[rb][sl] = s.backing[off : off+words]
		}
	}
	s.nonEmpty = make([]uint64, lay.RowBlocks)
	maxGroups := 0
	for cb := 0; cb < lay.ColBlocks; cb++ {
		if n := lay.GroupsInTile(cb); n > maxGroups {
			maxGroups = n
		}
	}
	s.counts = make([]int, maxGroups)
	s.sliceNZ = make([]int, lay.RowBlocks*spi)
	// Phase 1 computes ceil(nz/S_WL) for every non-zero group count; a
	// lookup table turns the inner loop's hardware division (a ~20%
	// profile cost) into an L1 load. nz never exceeds a tile's rows.
	s.ouTab = make([]int32, lay.XbarRows+1)
	for nz := 1; nz <= lay.XbarRows; nz++ {
		s.ouTab[nz] = int32((nz + lay.SWL - 1) / lay.SWL)
	}
	s.occTally = make([]int64, lay.XbarRows+1)
}
