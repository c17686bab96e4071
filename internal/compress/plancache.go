// Plan caching: a Structure memoizes, per (scheme, indexBits), the
// fully-derived execution state of every crossbar tile — the word
// plane of each group's retained rows, and the static OU/wordline
// counts the simulator's scheduling needs.
// Before this cache the simulator rebuilt identical plans (including
// the delta-index encoding) on every SimulateLayer call, once per mode per
// RunAll sweep; now each distinct key is built exactly once per
// Structure, concurrently-safe, and shared read-only by every mode and
// worker.
package compress

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"sre/internal/bitset"
	"sre/internal/index"
	"sre/internal/metrics"
	"sre/internal/xmath"
)

// TilePlans is the cached execution state of one (rb, cb) tile under
// one (scheme, indexBits) key. All fields are read-only after build.
type TilePlans struct {
	// Plane is the structure-of-arrays word flattening of the per-group
	// retained-row bitsets (zero-padding fillers included): group g
	// occupies words [g*Words:(g+1)*Words]. A group's retained row count
	// is the popcount of its words, since its encoded rows are distinct.
	Plane []uint64
	// Words is the word count of one group's row mask.
	Words int
	// Groups is the plane's group count.
	Groups int
	// RowCount is the sum of every group's retained rows — the
	// per-slice driven-wordline count when every retained row executes.
	RowCount int64
	// OUs is the sum of every group's ceil(rows/S_WL) — the per-slice OU
	// count without Dynamic OU Formation.
	OUs int64
	// NonEmptyGroups counts groups retaining at least one row. Schemes
	// whose plans reorder inputs fetch once per non-empty group — an
	// empty group (an all-zero weight bit slice under WSS) costs no
	// eDRAM read at all.
	NonEmptyGroups int
	// AllRows marks a Baseline tile: every group keeps every row, so
	// Plane is left nil rather than materializing Groups identical full
	// masks; TileRows carries the height. RowCount and OUs are still
	// filled in, and consumers that walk per-group rows (the
	// static-occupancy recorder) treat each group as TileRows full rows.
	AllRows bool
	// TileRows is the tile's row count (meaningful when AllRows is set).
	TileRows int
}

// PlanSet holds the cached tile plans of one Structure under one
// (scheme, indexBits) key, indexed [rb][cb].
type PlanSet struct {
	Tiles [][]TilePlans
}

// Tile returns the cached plans of tile (rb, cb).
func (ps *PlanSet) Tile(rb, cb int) *TilePlans { return &ps.Tiles[rb][cb] }

// sizeBytes is the set's resident size: its tile records and plane
// words.
func (ps *PlanSet) sizeBytes() int64 {
	var n int64
	for _, row := range ps.Tiles {
		for i := range row {
			n += int64(unsafe.Sizeof(row[i])) + 8*int64(len(row[i].Plane))
		}
	}
	return n
}

type planKey struct {
	scheme    Scheme
	indexBits int
}

// planCache is the lazily-initialized per-Structure memo. Entries are
// created under mu but built outside it via their own once, so two
// modes racing for the same key build it once and distinct keys build
// concurrently.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*planEntry
	// resident sums the sizeBytes of every set built so far, so
	// SizeBytes can account them without racing the lazy builds.
	resident atomic.Int64
}

type planEntry struct {
	once sync.Once
	ps   *PlanSet
}

// CacheMetrics carries the optional plan-cache observability counters a
// caller wants fed (all fields may be nil — metrics.Counter methods are
// nil-safe). Hits and Misses split lookups by whether the (scheme,
// indexBits) entry already existed; Builds counts plan constructions
// actually executed. Exactly one lookup creates each distinct key, so
// for a fixed workload the merged totals are deterministic regardless
// of which mode's goroutine wins the race: misses == builds == distinct
// keys, hits == lookups − distinct keys.
type CacheMetrics struct {
	Hits, Misses, Builds *metrics.Counter
}

// PlanSet returns the cached per-tile execution plans for scheme at the
// given index width, building them from the group planes on first use
// and feeding cm's counters. The result is shared and must be treated
// as read-only. Baseline and Ideal ignore the index width, so their
// entries are normalized to indexBits 0. OCC compresses along the other
// axis and has no row plans; like Plan, this panics for it.
func (s *Structure) PlanSet(scheme Scheme, indexBits int, cm CacheMetrics) *PlanSet {
	if scheme == OCC {
		panic("compress: PlanSet does not support scheme " + scheme.String())
	}
	if scheme == Baseline || scheme == Ideal || indexBits < 0 {
		indexBits = 0
	}
	key := planKey{scheme, indexBits}
	s.plans.mu.Lock()
	if s.plans.entries == nil {
		s.plans.entries = make(map[planKey]*planEntry)
	}
	e := s.plans.entries[key]
	if e == nil {
		e = &planEntry{}
		s.plans.entries[key] = e
		cm.Misses.Inc()
	} else {
		cm.Hits.Inc()
	}
	s.plans.mu.Unlock()
	e.once.Do(func() {
		cm.Builds.Inc()
		e.ps = s.buildPlanSet(scheme, indexBits)
		s.plans.resident.Add(e.ps.sizeBytes())
	})
	return e.ps
}

// buildPlanSet derives every tile's plans. Each group's retained
// rows, delta-index encoded (fillers included) when the scheme carries
// bounded indices, are written straight into its plane words from one
// scratch reused across groups and tiles. Schemes whose keep set is
// shared — Naive's per-tile criterion, ReCom's per-block criterion —
// encode it once per tile (resp. row block) and replicate the words
// across the tile's groups. The words set are exactly the rows Plan
// returns.
func (s *Structure) buildPlanSet(scheme Scheme, indexBits int) *PlanSet {
	lay := s.Layout
	grid := s.schemeGroups(scheme)
	ps := &PlanSet{Tiles: make([][]TilePlans, lay.RowBlocks)}
	var idxScratch, rowScratch []int // reused across groups and tiles
	// setRows sets keep's retained rows in the group words gw and
	// returns how many it set.
	setRows := func(gw []uint64, keep *bitset.Set) int {
		if scheme == Ideal || indexBits <= 0 {
			rowScratch = keep.Indices(rowScratch[:0])
		} else {
			idxScratch = keep.Indices(idxScratch[:0])
			var err error
			rowScratch, _, err = index.AppendEncodedRows(rowScratch[:0], idxScratch, indexBits)
			if err != nil {
				panic(err)
			}
		}
		for _, r := range rowScratch {
			gw[r>>6] |= 1 << uint(r&63)
		}
		return len(rowScratch)
	}
	for rb := 0; rb < lay.RowBlocks; rb++ {
		ps.Tiles[rb] = make([]TilePlans, lay.ColBlocks)
		tileRows := lay.TileRows(rb)
		words := bitset.Words64(tileRows)
		var blockWords []uint64 // ReCom: the row block's one keep set
		var blockRows int
		if scheme == ReCom {
			blockWords = make([]uint64, words)
			blockRows = setRows(blockWords, s.BlockNonZeroRows(rb))
		}
		for cb := 0; cb < lay.ColBlocks; cb++ {
			tp := &ps.Tiles[rb][cb]
			nGroups := lay.GroupsInTile(cb)
			tp.Words = words
			tp.Groups = nGroups
			if scheme == Baseline {
				tp.AllRows = true
				tp.TileRows = tileRows
				tp.RowCount = int64(nGroups) * int64(tileRows)
				tp.OUs = int64(nGroups) * int64(xmath.CeilDiv(tileRows, lay.SWL))
				tp.NonEmptyGroups = nGroups
				continue
			}
			tp.Plane = make([]uint64, nGroups*words)
			switch scheme {
			case Naive:
				tp.shareRows(setRows(tp.Plane[:words], s.TileNonZeroRows(rb, cb)), lay.SWL)
			case ReCom:
				copy(tp.Plane, blockWords)
				tp.shareRows(blockRows, lay.SWL)
			default: // ORC, WSS, Ideal: per-group keep sets
				for gi := 0; gi < nGroups; gi++ {
					n := setRows(tp.Plane[gi*words:(gi+1)*words], grid[rb][cb][gi])
					tp.RowCount += int64(n)
					tp.OUs += int64(xmath.CeilDiv(n, lay.SWL))
					if n > 0 {
						tp.NonEmptyGroups++
					}
				}
			}
		}
	}
	return ps
}

// shareRows completes a tile whose groups all retain the same rows
// (Naive, ReCom): group 0's words hold those rows and are replicated
// across the plane, keeping the exact per-group layout the counting
// kernels expect; rows is the per-group retained-row count.
func (tp *TilePlans) shareRows(rows, swl int) {
	for gi := 1; gi < tp.Groups; gi++ {
		copy(tp.Plane[gi*tp.Words:(gi+1)*tp.Words], tp.Plane[:tp.Words])
	}
	tp.RowCount = int64(tp.Groups) * int64(rows)
	tp.OUs = int64(tp.Groups) * int64(xmath.CeilDiv(rows, swl))
	if rows > 0 {
		tp.NonEmptyGroups = tp.Groups
	}
}
