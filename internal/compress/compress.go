// Package compress implements the weight-compression schemes the paper
// evaluates (§4.1, §6, Figs. 8, 17, 20):
//
//	Baseline — no compression; every OU row executes.
//	Naive    — crossbar-row compression: a row is removed from a crossbar
//	           when all of its cells in that crossbar are zero.
//	ReCom    — weight-matrix-row compression [24]: a row is removed only
//	           when the entire logical matrix row (the same filter pixel
//	           across every filter) is zero.
//	ORC      — OU-row compression (the paper's scheme): per column-wise
//	           OU group, rows whose S_BL cells are all zero are removed;
//	           each group keeps its own delta-encoded input indexes
//	           (zero-padded to a bounded width, internal/index).
//	Ideal    — every zero cell removed (Fig. 20's upper bound).
//	SNrram   — filter-grained column compression [44] (Fig. 20 arrows).
//
// The package never materializes the cell matrix: it scans weight codes
// row by row and records, per (row block, column block, OU column group),
// a bitset of rows that carry at least one non-zero cell. Everything else
// — retained-row plans, compression ratios, index storage — derives from
// those bitsets.
package compress

import (
	"fmt"
	"sync"

	"sre/internal/bitset"
	"sre/internal/index"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/tensor"
	"sre/internal/xmath"
)

// Scheme selects a weight-compression policy.
type Scheme int

const (
	Baseline Scheme = iota
	Naive
	ReCom
	ORC
	Ideal
	// OCC is OU-column compression (§4.1, Fig. 8(c)). It has its own
	// structure type (OCCStructure) because it compresses along the other
	// axis; Plan rejects it.
	OCC
	// WSS is weight-bit-slice skipping (ROADMAP bit-slice item; SME
	// arXiv:2103.01705, Bit-Slice Sparsity arXiv:1909.08496): weights are
	// mapped slice-major, so each OU column group holds same-significance
	// cell slices of S_BL weights, and rows whose cells in that slice
	// group are all zero are skipped. An all-zero slice produces an empty
	// group — zero OUs, zero driven wordlines, no eDRAM fetch — which is
	// how high-order slices of magnitude-skewed weights vanish.
	WSS
)

func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case Naive:
		return "naive"
	case ReCom:
		return "recom"
	case ORC:
		return "orc"
	case Ideal:
		return "ideal"
	case OCC:
		return "occ"
	case WSS:
		return "wss"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ReordersInputs reports whether the scheme keeps a per-group row order
// different from the physical crossbar order, so the simulator must
// fetch each group's inputs separately from eDRAM (one fetch per group
// rather than one per tile). True for the per-group row-compressing
// schemes (ORC, WSS).
func (s Scheme) ReordersInputs() bool { return s == ORC || s == WSS }

// ComposesWithDOF reports whether the scheme can combine with Dynamic
// OU Formation. OCC compresses along the column axis, which conflicts
// with DOF's row regrouping (paper Fig. 10); every row-compressing
// scheme composes.
func (s Scheme) ComposesWithDOF() bool { return s != OCC }

// FetchGroups returns the per-batch eDRAM fetch count of one tile with
// the given total and non-empty OU column group counts. Input-order-
// preserving schemes fetch the batch once; ORC fetches once per group
// (its per-group row orders diverge — the Fig. 18 eDRAM effect); WSS
// additionally skips the fetches of groups whose weight bit slice is
// all zero (an empty group maps no OUs, so nothing reads the batch).
func (s Scheme) FetchGroups(groups, nonEmpty int) int {
	switch {
	case s == WSS:
		return nonEmpty
	case s.ReordersInputs():
		return groups
	default:
		return 1
	}
}

// Source supplies quantized weight magnitude codes row-major without
// materializing the decomposed cell matrix.
type Source interface {
	// Dims returns the logical matrix dimensions.
	Dims() (rows, cols int)
	// RowCodes fills dst (length cols) with row r's magnitude codes.
	RowCodes(r int, dst []uint32)
}

// FloatSource adapts a rank-2 float weight tensor, quantizing on the fly
// with a single per-tensor scale (as quant.QuantizeMatrix does).
type FloatSource struct {
	W     *tensor.Tensor
	WBits int
	scale float64
}

// NewFloatSource builds a FloatSource for w under p.
func NewFloatSource(w *tensor.Tensor, p quant.Params) *FloatSource {
	if len(w.Shape()) != 2 {
		panic("compress: FloatSource wants a rank-2 tensor")
	}
	return &FloatSource{W: w, WBits: p.WBits, scale: quant.ScaleFor(float64(w.MaxAbs()), p.WBits)}
}

func (f *FloatSource) Dims() (int, int) { return f.W.Dim(0), f.W.Dim(1) }

func (f *FloatSource) RowCodes(r int, dst []uint32) {
	cols := f.W.Dim(1)
	row := f.W.Data()[r*cols : (r+1)*cols]
	for c, v := range row {
		if v < 0 {
			v = -v
		}
		dst[c] = quant.QuantizeUnsigned(float64(v), f.WBits, f.scale)
	}
}

// CodeSource adapts an in-memory code matrix (used by the synthetic
// workload generator).
type CodeSource struct {
	Rows, Cols int
	Codes      []uint32
}

func (c *CodeSource) Dims() (int, int) { return c.Rows, c.Cols }

func (c *CodeSource) RowCodes(r int, dst []uint32) {
	copy(dst, c.Codes[r*c.Cols:(r+1)*c.Cols])
}

// Structure is the per-layer compression structure: for every OU column
// group of every crossbar tile, which rows carry non-zero cells.
type Structure struct {
	Layout mapping.Layout
	P      quant.Params
	// groups[rb][cb][g] has bit r set iff tile row r has a non-zero cell
	// in group g's columns.
	groups [][][]*bitset.Set
	// sliceGroups is the same shape under the slice-major (WSS) mapping,
	// where a weight's cell j lands at physical column j*cols + c instead
	// of c*cpw + j: group g then holds same-significance slices of S_BL
	// weights, and bit r is set iff tile row r has a non-zero cell in
	// that slice group. WSS plans derive from this grid.
	sliceGroups [][][]*bitset.Set
	// nonZeroCells counts non-zero cells over the whole layer (Ideal).
	nonZeroCells int64
	// plans memoizes derived per-tile execution plans by
	// (scheme, indexBits) — see PlanSet.
	plans planCache
	// stats memoizes the CompressedCells/IndexStorageBits totals by the
	// same key — two int64s per key, so sweeps over many index widths
	// (ChooseIndexBits, Fig. 19) stay cheap without caching full plans.
	stats statsCache
}

// Build scans src and constructs the structure for geometry g under
// quantization p.
func Build(src Source, p quant.Params, g mapping.Geometry) *Structure {
	rows, cols := src.Dims()
	layout := mapping.NewLayout(rows, cols, p, g)
	s := &Structure{Layout: layout, P: p}
	s.groups = newGroupGrid(layout)
	s.sliceGroups = newGroupGrid(layout)
	cpw := p.CellsPerWeight()
	mask := uint32(1)<<uint(p.CellBits) - 1
	codes := make([]uint32, cols)
	for r := 0; r < rows; r++ {
		src.RowCodes(r, codes)
		rb := r / g.XbarRows
		tr := r % g.XbarRows
		for c, code := range codes {
			if code == 0 {
				continue
			}
			for j := 0; j < cpw; j++ {
				if code>>uint(j*p.CellBits)&mask == 0 {
					continue
				}
				s.nonZeroCells++
				pc := c*cpw + j
				cb := pc / g.XbarCols
				gi := (pc % g.XbarCols) / g.SBL
				s.groups[rb][cb][gi].Set(tr)
				// Slice-major mapping: same physical-column count, so the
				// tiling shape is identical; only the column index differs.
				smpc := j*cols + c
				scb := smpc / g.XbarCols
				sgi := (smpc % g.XbarCols) / g.SBL
				s.sliceGroups[rb][scb][sgi].Set(tr)
			}
		}
	}
	return s
}

// newGroupGrid allocates the per-(row block, column block, group) bitset
// grid both mappings share.
func newGroupGrid(layout mapping.Layout) [][][]*bitset.Set {
	grid := make([][][]*bitset.Set, layout.RowBlocks)
	for rb := range grid {
		grid[rb] = make([][]*bitset.Set, layout.ColBlocks)
		tileRows := layout.TileRows(rb)
		for cb := range grid[rb] {
			gs := make([]*bitset.Set, layout.GroupsInTile(cb))
			for gi := range gs {
				gs[gi] = bitset.New(tileRows)
			}
			grid[rb][cb] = gs
		}
	}
	return grid
}

// GroupNonZeroRows returns the bitset of rows with any non-zero cell in
// (rb, cb, gi). Callers must not mutate it.
func (s *Structure) GroupNonZeroRows(rb, cb, gi int) *bitset.Set {
	return s.groups[rb][cb][gi]
}

// SliceGroupNonZeroRows returns the bitset of rows with a non-zero cell
// in slice-major group (rb, cb, gi). Callers must not mutate it.
func (s *Structure) SliceGroupNonZeroRows(rb, cb, gi int) *bitset.Set {
	return s.sliceGroups[rb][cb][gi]
}

// schemeGroups returns the group grid a scheme's plans derive from: the
// slice-major grid for WSS, the word-major grid otherwise.
func (s *Structure) schemeGroups(scheme Scheme) [][][]*bitset.Set {
	if scheme == WSS {
		return s.sliceGroups
	}
	return s.groups
}

// TileNonZeroRows returns rows non-zero anywhere within tile (rb, cb) —
// the Naive crossbar-row criterion.
func (s *Structure) TileNonZeroRows(rb, cb int) *bitset.Set {
	out := bitset.New(s.Layout.TileRows(rb))
	for _, g := range s.groups[rb][cb] {
		g.Or(out, out)
	}
	return out
}

// BlockNonZeroRows returns rows non-zero anywhere in the whole logical
// matrix row (across every column block) — the ReCom criterion.
func (s *Structure) BlockNonZeroRows(rb int) *bitset.Set {
	out := bitset.New(s.Layout.TileRows(rb))
	for cb := range s.groups[rb] {
		for _, g := range s.groups[rb][cb] {
			g.Or(out, out)
		}
	}
	return out
}

// GroupPlan is the execution plan of one column-wise OU group under a
// compression scheme: the ordered tile-relative rows that remain mapped
// (fillers included), and the input-index storage it needs.
type GroupPlan struct {
	Rows        []int
	Fillers     int
	StorageBits int64
}

// RowCount returns the number of mapped rows (fillers included) — what
// cycle counts and compressed size derive from.
func (gp GroupPlan) RowCount() int { return len(gp.Rows) }

// Plan computes the retained rows of group (rb, cb, gi) under scheme.
// indexBits bounds the delta-encoded input indexes for schemes that
// reorder inputs (Naive, ReCom, ORC, WSS); pass 0 to disable zero-padding
// (unbounded indexes, each costing ceil(log2(XbarRows)) bits).
func (s *Structure) Plan(scheme Scheme, rb, cb, gi, indexBits int) GroupPlan {
	tileRows := s.Layout.TileRows(rb)
	var keep *bitset.Set
	switch scheme {
	case Baseline:
		all := make([]int, tileRows)
		for i := range all {
			all[i] = i
		}
		return GroupPlan{Rows: all}
	case Naive:
		keep = s.TileNonZeroRows(rb, cb)
	case ReCom:
		keep = s.BlockNonZeroRows(rb)
	case ORC, Ideal:
		keep = s.groups[rb][cb][gi]
	case WSS:
		keep = s.schemeGroups(WSS)[rb][cb][gi]
	default:
		panic("compress: Plan does not support scheme " + scheme.String())
	}
	rows := keep.Indices(nil)
	if scheme == Ideal {
		// Upper bound: no padding, no index cost accounted.
		return GroupPlan{Rows: rows}
	}
	if indexBits <= 0 {
		bits := xmath.CeilLog2(s.Layout.XbarRows)
		return GroupPlan{Rows: rows, StorageBits: int64(len(rows)) * int64(bits)}
	}
	enc, err := index.Encode(rows, indexBits)
	if err != nil {
		panic(err)
	}
	return GroupPlan{Rows: enc.Rows, Fillers: enc.Filler, StorageBits: enc.StorageBits()}
}

// storagePlanned totals mapped cells and index storage by calling Plan
// for every group. A scheme stores one index stream per tile's column
// group (ORC), per tile (Naive), or per row block (ReCom, shared by
// every tile in the block). It is the uncached reference the memoized
// count-only scan (computePlanStats) is tested against — production
// callers go through CompressedCells/IndexStorageBits, which never
// rebuild plans.
func (s *Structure) storagePlanned(scheme Scheme, indexBits int) (cells, storage int64) {
	for rb := range s.groups {
		recomCounted := false
		for cb := range s.groups[rb] {
			naiveCounted := false
			for gi := range s.groups[rb][cb] {
				gp := s.Plan(scheme, rb, cb, gi, indexBits)
				lo, hi := s.Layout.GroupCols(cb, gi)
				cells += int64(gp.RowCount()) * int64(hi-lo)
				switch scheme {
				case ORC, WSS:
					storage += gp.StorageBits
				case Naive:
					if !naiveCounted {
						storage += gp.StorageBits
						naiveCounted = true
					}
				case ReCom:
					if !recomCounted {
						storage += gp.StorageBits
						recomCounted = true
					}
				}
			}
		}
	}
	return cells, storage
}

// statsCache memoizes planStats per (scheme, indexBits). Entries are
// tiny (two int64s), so unlike the plan cache it can afford to keep
// every key an index-width sweep ever asks about.
type statsCache struct {
	mu sync.Mutex
	m  map[planKey]planStats
}

// planStats are the memoized per-(scheme, indexBits) totals: mapped
// cells, index storage, and the number of OU column groups with no
// retained rows at all (elided groups — for WSS these are the all-zero
// weight bit slices the mode skips).
type planStats struct{ cells, storage, emptyGroups int64 }

// planStatsFor returns the memoized storagePlanned totals, computing
// them once per key with the count-only scan. The per-Result ratio
// reporting (sre.RunContext) hits this for every mode of every run, so
// the recurring cost must be a map lookup, not a plan rebuild.
func (s *Structure) planStatsFor(scheme Scheme, indexBits int) planStats {
	if scheme == Baseline || scheme == Ideal || indexBits <= 0 {
		indexBits = 0 // Plan treats every non-positive width the same
	}
	key := planKey{scheme, indexBits}
	s.stats.mu.Lock()
	defer s.stats.mu.Unlock()
	if st, ok := s.stats.m[key]; ok {
		return st
	}
	st := s.computePlanStats(scheme, indexBits)
	if s.stats.m == nil {
		s.stats.m = make(map[planKey]planStats)
	}
	s.stats.m[key] = st
	return st
}

// computePlanStats reproduces storagePlanned's totals without
// materializing any plan: a keep set contributes only its retained-row
// count and (for bounded index widths) its filler count, which a
// set-bit walk yields directly. The Naive tile criterion and the ReCom
// block criterion are hoisted out of the per-group loop — their keep
// sets are shared — so this runs one bitset union per tile or block
// instead of one per group.
func (s *Structure) computePlanStats(scheme Scheme, indexBits int) planStats {
	lay := s.Layout
	absBits := int64(xmath.CeilLog2(lay.XbarRows))
	var st planStats
	for rb := range s.groups {
		tileRows := int64(lay.TileRows(rb))
		var blockRows, blockStorage int64
		if scheme == ReCom {
			blockRows, blockStorage = plannedRowTotals(s.BlockNonZeroRows(rb), scheme, indexBits, absBits)
		}
		recomCounted := false
		for cb := range s.groups[rb] {
			var tileKeepRows, tileStorage int64
			if scheme == Naive {
				tileKeepRows, tileStorage = plannedRowTotals(s.TileNonZeroRows(rb, cb), scheme, indexBits, absBits)
			}
			naiveCounted := false
			for gi := range s.groups[rb][cb] {
				lo, hi := lay.GroupCols(cb, gi)
				width := int64(hi - lo)
				var rows, storage int64
				switch scheme {
				case Baseline:
					rows = tileRows
				case Naive:
					rows, storage = tileKeepRows, tileStorage
				case ReCom:
					rows, storage = blockRows, blockStorage
				case ORC, Ideal:
					rows, storage = plannedRowTotals(s.groups[rb][cb][gi], scheme, indexBits, absBits)
				case WSS:
					rows, storage = plannedRowTotals(s.schemeGroups(WSS)[rb][cb][gi], scheme, indexBits, absBits)
				default:
					panic("compress: Plan does not support scheme " + scheme.String())
				}
				if rows == 0 {
					st.emptyGroups++
				}
				st.cells += rows * width
				switch scheme {
				case ORC, WSS:
					st.storage += storage
				case Naive:
					if !naiveCounted {
						st.storage += storage
						naiveCounted = true
					}
				case ReCom:
					if !recomCounted {
						st.storage += storage
						recomCounted = true
					}
				}
			}
		}
	}
	return st
}

// plannedRowTotals returns the mapped-row count (fillers included) and
// index storage of one keep set under Plan's encoding rules: Ideal pays
// no index cost, unbounded widths store one absolute index per retained
// row, and bounded widths insert a filler each time a gap exceeds the
// representable span (exactly index.Encode's loop) with every row —
// filler or retained — storing one code.
func plannedRowTotals(keep *bitset.Set, scheme Scheme, indexBits int, absBits int64) (rows, storage int64) {
	n := int64(keep.Count())
	if scheme == Ideal {
		return n, 0
	}
	if indexBits <= 0 {
		return n, n * absBits
	}
	span := 1 << uint(indexBits)
	var fillers int64
	prev := -1
	for i := keep.NextSet(0); i >= 0; i = keep.NextSet(i + 1) {
		if gap := i - prev; gap > span {
			fillers += int64((gap - 1) / span)
		}
		prev = i
	}
	total := n + fillers
	return total, total * int64(indexBits)
}

// CompressedCells returns the mapped cell count under scheme (fillers
// included) — the denominator of the Fig. 20 compression ratio. Totals
// are memoized per (scheme, indexBits), so per-run ratio reporting
// costs a map lookup after the first call.
func (s *Structure) CompressedCells(scheme Scheme, indexBits int) int64 {
	if scheme == Ideal {
		return s.nonZeroCells
	}
	return s.planStatsFor(scheme, indexBits).cells
}

// CompressionRatio returns originalCells / compressedCells (≥ 1).
func (s *Structure) CompressionRatio(scheme Scheme, indexBits int) float64 {
	comp := s.CompressedCells(scheme, indexBits)
	if comp == 0 {
		comp = 1
	}
	return float64(s.Layout.TotalCells()) / float64(comp)
}

// IndexStorageBits returns the total input-index storage the scheme needs
// (Fig. 19 for ORC), memoized like CompressedCells.
func (s *Structure) IndexStorageBits(scheme Scheme, indexBits int) int64 {
	return s.planStatsFor(scheme, indexBits).storage
}

// EmptyGroups returns the number of OU column groups the scheme retains
// no rows for — groups the simulator elides entirely (no OUs, no driven
// wordlines, no eDRAM fetch). Under WSS these are the all-zero weight
// bit slices; memoized like CompressedCells.
func (s *Structure) EmptyGroups(scheme Scheme, indexBits int) int64 {
	return s.planStatsFor(scheme, indexBits).emptyGroups
}

// SizeBytes estimates the structure's resident memory: both group
// grids' non-zero-row masks (exactly the two planes a snapshot
// persists, and all a built or decoded structure owns) plus per-group
// bitset headers and a fixed bookkeeping constant, plus the tile
// records and plane words of every plan set runs have built so far.
// It grows as plan sets are built and never shrinks. The serve-layer
// registry uses this estimate for its byte-bounded LRU accounting, so
// it only needs to order networks by footprint, not be exact.
func (s *Structure) SizeBytes() int64 {
	rowWords, groups := planeShape(s.Layout)
	grid := int64(rowWords)*int64(groups)*8 + int64(groups)*int64(s.Layout.RowBlocks)*48
	return 2*grid + 512 + s.plans.resident.Load()
}

// AbsoluteIndexBits returns the storage needed if absolute (non-delta)
// indexes were kept instead — the ~4 MB comparison point the paper gives
// for ResNet-50 (§7.2).
func (s *Structure) AbsoluteIndexBits() int64 {
	bits := int64(xmath.CeilLog2(s.Layout.XbarRows))
	var total int64
	for rb := range s.groups {
		for cb := range s.groups[rb] {
			for gi := range s.groups[rb][cb] {
				total += int64(s.groups[rb][cb][gi].Count()) * bits
			}
		}
	}
	return total
}

// ChooseIndexBits implements the paper's §6 policy: the minimum index
// width whose zero-padding loses less than lossFrac (10 %) of the
// unpadded ORC compression ratio.
func (s *Structure) ChooseIndexBits(lossFrac float64) int {
	ref := s.CompressionRatio(ORC, 0)
	maxBits := xmath.CeilLog2(s.Layout.XbarRows)
	for bits := 1; bits < maxBits; bits++ {
		if s.CompressionRatio(ORC, bits) >= ref*(1-lossFrac) {
			return bits
		}
	}
	return maxBits
}

// SNrramCompressedCells models SNrram's [44] filter-grained column
// compression: each logical column splits into segments of segRows rows
// (filter height × width for conv layers; 1 for FC), and all-zero
// segments are removed. Works at weight granularity, matching the
// model-based scheme it mimics.
func SNrramCompressedCells(src Source, p quant.Params, segRows int) int64 {
	rows, cols := src.Dims()
	if segRows <= 0 {
		segRows = 1
	}
	cpw := int64(p.CellsPerWeight())
	// segNonZero[c] tracks whether the current segment of column c has a
	// non-zero weight.
	segNonZero := make([]bool, cols)
	var kept int64
	codes := make([]uint32, cols)
	flush := func(rowsInSeg int) {
		for c := range segNonZero {
			if segNonZero[c] {
				kept += int64(rowsInSeg) * cpw
				segNonZero[c] = false
			}
		}
	}
	inSeg := 0
	for r := 0; r < rows; r++ {
		src.RowCodes(r, codes)
		for c, code := range codes {
			if code != 0 {
				segNonZero[c] = true
			}
		}
		inSeg++
		if inSeg == segRows {
			flush(inSeg)
			inSeg = 0
		}
	}
	if inSeg > 0 {
		flush(inSeg)
	}
	return kept
}
