// Package mapping computes how a layer's decomposed weight matrix tiles
// onto physical crossbar arrays (paper §2.1, Fig. 2–3) and how each array
// divides into OU row/column groups (paper §3).
//
// A matrix layer with R logical rows and C logical columns occupies
// R × C·(WBits/CellBits) cells. Cells tile into XbarRows×XbarCols arrays;
// each array splits into column-wise OU groups of width S_BL, and
// computation proceeds S_WL rows per cycle within a group.
package mapping

import (
	"fmt"

	"sre/internal/quant"
	"sre/internal/xmath"
)

// Geometry is the crossbar/OU configuration of Table 1.
type Geometry struct {
	XbarRows, XbarCols int // physical array size (128×128)
	SWL, SBL           int // OU height (wordlines) and width (bitlines)
}

// Default returns the Table 1 geometry: 128×128 arrays with 16×16 OUs.
func Default() Geometry { return Geometry{XbarRows: 128, XbarCols: 128, SWL: 16, SBL: 16} }

// maxCrossbar bounds each crossbar dimension: 8× the paper's 128. A
// layer's phase-1 scratch and mask planes grow linearly with the array
// height, so the bound keeps one run's allocation bounded.
const maxCrossbar = 1024

// Validate rejects inconsistent geometry.
func (g Geometry) Validate() error {
	switch {
	case g.XbarRows <= 0 || g.XbarCols <= 0 || g.XbarRows > maxCrossbar || g.XbarCols > maxCrossbar:
		return fmt.Errorf("mapping: crossbar size %dx%d outside [1,%d]", g.XbarRows, g.XbarCols, maxCrossbar)
	case g.SWL <= 0 || g.SWL > g.XbarRows:
		return fmt.Errorf("mapping: OU height %d outside [1,%d]", g.SWL, g.XbarRows)
	case g.SBL <= 0 || g.SBL > g.XbarCols:
		return fmt.Errorf("mapping: OU width %d outside [1,%d]", g.SBL, g.XbarCols)
	}
	return nil
}

// WithOU returns the geometry with a different (square) OU size.
func (g Geometry) WithOU(s int) Geometry {
	g.SWL, g.SBL = s, s
	return g
}

// Layout is the tiling of one layer onto crossbars.
type Layout struct {
	Geometry
	Rows        int // logical = cell rows
	LogicalCols int
	CPW         int // cells per weight
	PhysCols    int // LogicalCols · CPW
	RowBlocks   int // ceil(Rows / XbarRows)
	ColBlocks   int // ceil(PhysCols / XbarCols)
}

// NewLayout computes the tiling for a layer of rows×cols logical weights
// under quantization p.
func NewLayout(rows, cols int, p quant.Params, g Geometry) Layout {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	cpw := p.CellsPerWeight()
	phys := cols * cpw
	return Layout{
		Geometry:    g,
		Rows:        rows,
		LogicalCols: cols,
		CPW:         cpw,
		PhysCols:    phys,
		RowBlocks:   xmath.CeilDiv(rows, g.XbarRows),
		ColBlocks:   xmath.CeilDiv(phys, g.XbarCols),
	}
}

// TileRows returns the number of cell rows in row block rb.
func (l Layout) TileRows(rb int) int {
	return clampSpan(rb, l.XbarRows, l.Rows)
}

// TileCols returns the number of physical columns in column block cb.
func (l Layout) TileCols(cb int) int {
	return clampSpan(cb, l.XbarCols, l.PhysCols)
}

func clampSpan(block, size, total int) int {
	lo := block * size
	hi := lo + size
	if hi > total {
		hi = total
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// GroupsInTile returns the number of S_BL-wide column groups in column
// block cb (the last group of the last block may be narrower).
func (l Layout) GroupsInTile(cb int) int {
	return xmath.CeilDiv(l.TileCols(cb), l.SBL)
}

// GroupCols returns the physical-column range [lo, hi) — relative to the
// tile — of group gi in column block cb.
func (l Layout) GroupCols(cb, gi int) (lo, hi int) {
	lo = gi * l.SBL
	hi = lo + l.SBL
	if tc := l.TileCols(cb); hi > tc {
		hi = tc
	}
	return lo, hi
}

// OUsPerTileBaseline returns the OU activations one (rb, cb) tile needs
// for one input batch and one bit slice without any compression:
// groups × ceil(tileRows/S_WL).
func (l Layout) OUsPerTileBaseline(rb, cb int) int {
	return l.GroupsInTile(cb) * xmath.CeilDiv(l.TileRows(rb), l.SWL)
}

// TotalArrays returns how many crossbar arrays the layer occupies.
func (l Layout) TotalArrays() int { return l.RowBlocks * l.ColBlocks }

// TotalCells returns the layer's physical cell count (the "original size"
// of the Fig. 20 compression-ratio definition).
func (l Layout) TotalCells() int64 { return int64(l.Rows) * int64(l.PhysCols) }
