// Plan caching: a Structure memoizes, per (scheme, indexBits), the
// fully-derived execution state of every crossbar tile — retained-row
// plans, the word-plane flattening of the per-group row bitsets, and
// the static OU/wordline counts the simulator's scheduling needs.
// Before this cache the simulator rebuilt identical plans (including
// the delta-index encoding) on every SimulateLayer call, once per mode per
// RunAll sweep; now each distinct key is built exactly once per
// Structure, concurrently-safe, and shared read-only by every mode and
// worker.
package compress

import (
	"sync"

	"sre/internal/bitset"
	"sre/internal/index"
	"sre/internal/metrics"
	"sre/internal/xmath"
)

// TilePlans is the cached execution state of one (rb, cb) tile under
// one (scheme, indexBits) key. All fields are read-only after build.
type TilePlans struct {
	// GroupRows lists, per OU column group, the ordered tile-relative
	// retained rows (zero-padding fillers included).
	GroupRows [][]int
	// Plane is the structure-of-arrays word flattening of the per-group
	// retained-row bitsets: group g occupies words [g*Words:(g+1)*Words].
	Plane []uint64
	// Words is the word count of one group's row mask.
	Words int
	// Groups is len(GroupRows) (the plane's group count).
	Groups int
	// RowCount is Σ_g len(GroupRows[g]) — the per-slice driven-wordline
	// count when every retained row executes.
	RowCount int64
	// OUs is Σ_g ceil(len(GroupRows[g])/S_WL) — the per-slice OU count
	// without Dynamic OU Formation.
	OUs int64
	// NonEmptyGroups counts groups retaining at least one row. Schemes
	// whose plans reorder inputs fetch once per non-empty group — an
	// empty group (an all-zero weight bit slice under WSS) costs no
	// eDRAM read at all.
	NonEmptyGroups int
	// AllRows marks a Baseline tile: every group keeps every row, so
	// GroupRows and Plane are left nil rather than materializing Groups
	// identical full masks; TileRows carries the height. RowCount and
	// OUs are still filled in, and consumers that walk per-group rows
	// (the static-occupancy recorder) treat each group as TileRows full
	// rows.
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
	})
	return e.ps
}

// buildPlanSet derives every tile's plans. Schemes whose keep set is
// shared — Naive's per-tile criterion, ReCom's per-block criterion —
// are encoded exactly once per tile (resp. row block) and every group
// header aliases the one row list, instead of re-running the
// delta-index encoding per group as Plan does; per-group schemes (ORC,
// Ideal) accumulate their rows in a scratch buffer reused across tiles
// and take one exact-size copy per tile, so steady-state builds do no
// append growth at all. Plane words are set in place in the final
// allocation. The produced rows (and the words the simulator counts
// against) are byte-for-byte what Plan returns.
func (s *Structure) buildPlanSet(scheme Scheme, indexBits int) *PlanSet {
	lay := s.Layout
	grid := s.schemeGroups(scheme)
	ps := &PlanSet{Tiles: make([][]TilePlans, lay.RowBlocks)}
	var idxScratch []int // reused raw keep-set indices across groups
	var rowScratch []int // reused encoded-rows accumulator across tiles
	var offScratch []int // reused per-tile group offsets
	// encode overwrites rowScratch with keep's retained rows, delta-index
	// encoded (fillers included) when the scheme carries bounded indices.
	encode := func(keep *bitset.Set) []int {
		if scheme == Ideal || indexBits <= 0 {
			rowScratch = keep.Indices(rowScratch[:0])
			return rowScratch
		}
		idxScratch = keep.Indices(idxScratch[:0])
		var err error
		rowScratch, _, err = index.AppendEncodedRows(rowScratch[:0], idxScratch, indexBits)
		if err != nil {
			panic(err)
		}
		return rowScratch
	}
	for rb := 0; rb < lay.RowBlocks; rb++ {
		ps.Tiles[rb] = make([]TilePlans, lay.ColBlocks)
		tileRows := lay.TileRows(rb)
		words := bitset.Words64(tileRows)
		var blockRows []int // ReCom: one exact-size row list per row block
		if scheme == ReCom {
			enc := encode(s.BlockNonZeroRows(rb))
			blockRows = make([]int, len(enc))
			copy(blockRows, enc)
		}
		for cb := 0; cb < lay.ColBlocks; cb++ {
			tp := &ps.Tiles[rb][cb]
			nGroups := lay.GroupsInTile(cb)
			tp.Words = words
			tp.Groups = nGroups
			switch scheme {
			case Baseline:
				tp.AllRows = true
				tp.TileRows = tileRows
				tp.RowCount = int64(nGroups) * int64(tileRows)
				tp.OUs = int64(nGroups) * int64(xmath.CeilDiv(tileRows, lay.SWL))
				tp.NonEmptyGroups = nGroups
			case Naive:
				enc := encode(s.TileNonZeroRows(rb, cb))
				rows := make([]int, len(enc))
				copy(rows, enc)
				tp.shareRows(rows, lay.SWL)
			case ReCom:
				tp.shareRows(blockRows, lay.SWL)
			default: // ORC, Ideal: per-group keep sets
				tp.GroupRows = make([][]int, nGroups)
				if cap(offScratch) < nGroups+1 {
					offScratch = make([]int, nGroups+1)
				}
				offs := offScratch[:nGroups+1]
				offs[0] = 0
				acc := rowScratch[:0]
				for gi := 0; gi < nGroups; gi++ {
					keep := grid[rb][cb][gi]
					if scheme == Ideal || indexBits <= 0 {
						acc = keep.Indices(acc)
					} else {
						idxScratch = keep.Indices(idxScratch[:0])
						var err error
						acc, _, err = index.AppendEncodedRows(acc, idxScratch, indexBits)
						if err != nil {
							panic(err)
						}
					}
					offs[gi+1] = len(acc)
				}
				rowScratch = acc // keep the grown accumulator for later tiles
				backing := make([]int, len(acc))
				copy(backing, acc)
				tp.Plane = make([]uint64, nGroups*words)
				for gi := 0; gi < nGroups; gi++ {
					rows := backing[offs[gi]:offs[gi+1]:offs[gi+1]]
					tp.GroupRows[gi] = rows
					gw := tp.Plane[gi*words : (gi+1)*words]
					for _, r := range rows {
						gw[r>>6] |= 1 << uint(r&63)
					}
					tp.RowCount += int64(len(rows))
					tp.OUs += int64(xmath.CeilDiv(len(rows), lay.SWL))
					if len(rows) > 0 {
						tp.NonEmptyGroups++
					}
				}
			}
		}
	}
	return ps
}

// shareRows fills a tile whose groups all retain the same rows (Naive,
// ReCom): every group header aliases the one list and the plane
// replicates one group's words, preserving the exact per-group layout
// the counting kernels expect.
func (tp *TilePlans) shareRows(rows []int, swl int) {
	tp.GroupRows = make([][]int, tp.Groups)
	tp.Plane = make([]uint64, tp.Groups*tp.Words)
	g0 := tp.Plane[:tp.Words]
	for _, r := range rows {
		g0[r>>6] |= 1 << uint(r&63)
	}
	for gi := 0; gi < tp.Groups; gi++ {
		tp.GroupRows[gi] = rows
		copy(tp.Plane[gi*tp.Words:(gi+1)*tp.Words], g0)
	}
	tp.RowCount = int64(tp.Groups) * int64(len(rows))
	tp.OUs = int64(tp.Groups) * int64(xmath.CeilDiv(len(rows), swl))
	if len(rows) > 0 {
		tp.NonEmptyGroups = tp.Groups
	}
}
