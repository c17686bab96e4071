// Structure serialization: the owned-buffer layout internal/snapshot
// persists. A Structure's whole state is its two grids of per-(row
// block, column block, OU group) non-zero-row bitsets, one under the
// word-major mapping and one under the slice-major (WSS) mapping. This
// file flattens each grid into one contiguous word plane (group-major
// in (rb, cb, gi) order, each group occupying bitset.Words64(tileRows)
// words) and rebuilds a Structure from such a pair of planes zero-copy,
// so a snapshot loads in one read. Plan sets are never persisted: every
// one derives from the planes on first use, by buildPlanSet, whether
// the structure was built or decoded.
package compress

import (
	"fmt"

	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/xmath"
)

// PlaneWords returns the word count of each of the structure's two
// flattened group planes (both mappings tile identically) — the backing
// size AppendPlanes and AppendSlicePlanes produce and
// NewStructureFromPlanes expects of each.
func (s *Structure) PlaneWords() int {
	rowWords, groups := planeShape(s.Layout)
	return rowWords * groups
}

// planeShape factors a group plane over lay: every (row block, column
// group) holds one Words64(TileRows(rb))-word mask, so the plane is
// the row blocks' summed words times the column blocks' summed groups
// long. Only the last block of either kind can be partial.
func planeShape(lay mapping.Layout) (rowWords, groups int) {
	lastR, lastC := lay.RowBlocks-1, lay.ColBlocks-1
	rowWords = lastR*bitset.Words64(lay.XbarRows) + bitset.Words64(lay.TileRows(lastR))
	groups = lastC*xmath.CeilDiv(lay.XbarCols, lay.SBL) + lay.GroupsInTile(lastC)
	return rowWords, groups
}

// NonZeroCells returns the layer's non-zero cell count (the Ideal
// scheme's compressed size), persisted alongside the planes so a
// decoded Structure reports identical compression ratios.
func (s *Structure) NonZeroCells() int64 { return s.nonZeroCells }

// AppendPlanes appends every group's non-zero-row mask to dst in
// (rb, cb, gi) order and returns the extended slice: the layout
// PlaneWords sizes and NewStructureFromPlanes consumes as its planes
// argument.
func (s *Structure) AppendPlanes(dst []uint64) []uint64 {
	return appendGroupGrid(dst, s.groups)
}

// AppendSlicePlanes is AppendPlanes over the slice-major groups: what
// NewStructureFromPlanes consumes as its slicePlanes argument.
func (s *Structure) AppendSlicePlanes(dst []uint64) []uint64 {
	return appendGroupGrid(dst, s.sliceGroups)
}

// appendGroupGrid flattens one group grid in (rb, cb, gi) order.
func appendGroupGrid(dst []uint64, grid [][][]*bitset.Set) []uint64 {
	for rb := range grid {
		for cb := range grid[rb] {
			for _, g := range grid[rb][cb] {
				dst = bitset.AppendPlane(dst, g)
			}
		}
	}
	return dst
}

// NewStructureFromPlanes rebuilds a Structure from a contiguous group
// plane produced by AppendPlanes and a slice-major plane produced by
// AppendSlicePlanes; each must be exactly PlaneWords long for the
// dims. The group bitsets adopt sub-slices of the planes without
// copying, so the caller must keep the slices alive and must not mutate
// them afterwards — exactly the read-only contract built Structures
// already obey. Derived state (plan sets, memoized stats) rebuilds
// lazily and bit-identically on first use, as for a built Structure.
func NewStructureFromPlanes(rows, cols int, p quant.Params, g mapping.Geometry, planes, slicePlanes []uint64, nonZeroCells int64) (*Structure, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("compress: non-positive matrix dims %dx%d", rows, cols)
	}
	// Each group mask takes at least one word and covers at most 64 rows
	// and SBL physical columns, so dims no plane of this length can
	// cover are rejected before a layout or a group grid is sized from
	// them; the exact length is checked against the layout next.
	if rows > 64*len(planes) || cols > g.SBL*len(planes) {
		return nil, fmt.Errorf("compress: a %d-word plane cannot hold a %dx%d matrix", len(planes), rows, cols)
	}
	layout := mapping.NewLayout(rows, cols, p, g)
	rowWords, groups := planeShape(layout)
	for _, pl := range [][]uint64{planes, slicePlanes} {
		if len(pl)%groups != 0 || len(pl)/groups != rowWords {
			return nil, fmt.Errorf("compress: plane has %d words, a %dx%d matrix needs %d·%d",
				len(pl), rows, cols, rowWords, groups)
		}
	}
	return &Structure{Layout: layout, P: p, nonZeroCells: nonZeroCells,
		groups:      adoptGroupGrid(layout, planes),
		sliceGroups: adoptGroupGrid(layout, slicePlanes)}, nil
}

// adoptGroupGrid rebuilds one group grid zero-copy from its flattened
// plane, whose length the caller has checked against the layout.
func adoptGroupGrid(layout mapping.Layout, planes []uint64) [][][]*bitset.Set {
	grid := make([][][]*bitset.Set, layout.RowBlocks)
	off := 0
	for rb := range grid {
		grid[rb] = make([][]*bitset.Set, layout.ColBlocks)
		tileRows := layout.TileRows(rb)
		w := bitset.Words64(tileRows)
		for cb := range grid[rb] {
			gs := make([]*bitset.Set, layout.GroupsInTile(cb))
			for gi := range gs {
				gs[gi] = bitset.FromWords(tileRows, planes[off:off+w:off+w])
				off += w
			}
			grid[rb][cb] = gs
		}
	}
	return grid
}
