// Structure and plan-set serialization: the owned-buffer layouts
// internal/snapshot persists. A Structure's source of truth is its
// per-(row block, column block, OU group) non-zero-row bitsets; this
// file flattens them into one contiguous word plane (group-major in
// (rb, cb, gi) order, each group occupying bitset.Words64(tileRows)
// words) and rebuilds a Structure from such a plane zero-copy, so a
// snapshot can be loaded in one read. PlanSets — the derived per-tile
// execution state — get their own compact encoding plus a cache-seeding
// hook, so a snapshot can carry the expensive-to-derive ORC plans and a
// loaded network starts with a warm plan cache.
package compress

import (
	"encoding/binary"
	"fmt"

	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/xmath"
)

// PlaneWords returns the total word count of the structure's flattened
// group plane — the backing size AppendPlanes produces and
// NewStructureFromPlanes expects.
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

// AppendPlanes appends every group's non-zero-row mask to dst in
// (rb, cb, gi) order and returns the extended slice. The layout is the
// one PlaneWords sizes and NewStructureFromPlanes consumes.
func (s *Structure) AppendPlanes(dst []uint64) []uint64 {
	for rb := range s.groups {
		for cb := range s.groups[rb] {
			for _, g := range s.groups[rb][cb] {
				dst = bitset.AppendPlane(dst, g)
			}
		}
	}
	return dst
}

// NonZeroCells returns the layer's non-zero cell count (the Ideal
// scheme's compressed size), persisted alongside the plane so a decoded
// Structure reports identical compression ratios.
func (s *Structure) NonZeroCells() int64 { return s.nonZeroCells }

// SlicePlaneWords returns the word count of the slice-major group plane
// (identical tiling, so it equals PlaneWords), or 0 when the structure
// carries no slice planes.
func (s *Structure) SlicePlaneWords() int {
	if s.sliceGroups == nil {
		return 0
	}
	return s.PlaneWords()
}

// AppendSlicePlanes appends every slice-major group's non-zero-row mask
// to dst in (rb, cb, gi) order — the layout SlicePlaneWords sizes and
// NewStructureFromPlanes consumes as its slicePlanes argument. Appends
// nothing when the structure carries no slice planes.
func (s *Structure) AppendSlicePlanes(dst []uint64) []uint64 {
	for rb := range s.sliceGroups {
		for cb := range s.sliceGroups[rb] {
			for _, g := range s.sliceGroups[rb][cb] {
				dst = bitset.AppendPlane(dst, g)
			}
		}
	}
	return dst
}

// NewStructureFromPlanes rebuilds a Structure from a contiguous group
// plane produced by AppendPlanes, plus an optional slice-major plane
// produced by AppendSlicePlanes (nil means the source carried none; the
// structure then reports HasSlicePlanes false and cannot serve WSS).
// The group bitsets adopt sub-slices of the planes without copying, so
// the caller must keep the slices alive and must not mutate them
// afterwards — exactly the read-only contract built Structures already
// obey. Derived state (plan sets, memoized stats) rebuilds lazily and
// bit-identically on first use.
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
		if pl != nil && (len(pl)%groups != 0 || len(pl)/groups != rowWords) {
			return nil, fmt.Errorf("compress: plane has %d words, a %dx%d matrix needs %d·%d",
				len(pl), rows, cols, rowWords, groups)
		}
	}
	s := &Structure{Layout: layout, P: p, nonZeroCells: nonZeroCells,
		groups: adoptGroupGrid(layout, planes)}
	if slicePlanes != nil {
		s.sliceGroups = adoptGroupGrid(layout, slicePlanes)
	}
	return s, nil
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

// SeedPlanSet installs a pre-built plan set for (scheme, indexBits) in
// the structure's plan cache, so the first simulation under that key
// reads it instead of deriving plans. Seeding an already-cached key is
// a no-op (the first installation wins, matching the cache's
// build-once semantics). The plan set must describe this structure —
// snapshot decoding guarantees that by construction.
func (s *Structure) SeedPlanSet(scheme Scheme, indexBits int, ps *PlanSet) {
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
	}
	s.plans.mu.Unlock()
	e.once.Do(func() { e.ps = ps })
}

// Plan-set wire encoding (all little-endian):
//
//	u32 rowBlocks, u32 colBlocks
//	per tile, rb-major:
//	  u8 flags (bit 0: AllRows)
//	  AllRows tile: u32 tileRows, u32 groups
//	  otherwise:    u32 groups, then per group u32 count + count×u16 rows
//
// Row values are tile-relative (< XbarRows ≤ 64Ki), so u16 suffices.
// The plane words, row counts, and OU counts are derived at decode
// time, keeping the wire form minimal.

// AppendPlanSet appends ps's wire encoding to dst and returns it.
func AppendPlanSet(dst []byte, ps *PlanSet) []byte {
	var u32 [4]byte
	put32 := func(v int) {
		binary.LittleEndian.PutUint32(u32[:], uint32(v))
		dst = append(dst, u32[:]...)
	}
	put32(len(ps.Tiles))
	if len(ps.Tiles) == 0 {
		put32(0)
		return dst
	}
	put32(len(ps.Tiles[0]))
	for rb := range ps.Tiles {
		for cb := range ps.Tiles[rb] {
			tp := &ps.Tiles[rb][cb]
			if tp.AllRows {
				dst = append(dst, 1)
				put32(tp.TileRows)
				put32(tp.Groups)
				continue
			}
			dst = append(dst, 0)
			put32(len(tp.GroupRows))
			for _, rows := range tp.GroupRows {
				put32(len(rows))
				for _, r := range rows {
					if r > 0xFFFF {
						panic("compress: AppendPlanSet row exceeds u16 (crossbar > 64Ki rows)")
					}
					dst = append(dst, byte(r), byte(r>>8))
				}
			}
		}
	}
	return dst
}

// DecodePlanSet rebuilds a PlanSet from AppendPlanSet's encoding for a
// layer with the given layout. Derived fields (Plane, Words, RowCount,
// OUs) are recomputed exactly as buildPlanSet fills them, so a decoded
// plan set is indistinguishable from a freshly built one.
func DecodePlanSet(data []byte, lay mapping.Layout) (*PlanSet, error) {
	off := 0
	need := func(n int) error {
		if len(data)-off < n {
			return fmt.Errorf("compress: plan set truncated at byte %d (need %d more)", off, n)
		}
		return nil
	}
	get32 := func() (int, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return int(v), nil
	}
	rbs, err := get32()
	if err != nil {
		return nil, err
	}
	cbs, err := get32()
	if err != nil {
		return nil, err
	}
	if rbs != lay.RowBlocks || cbs != lay.ColBlocks {
		return nil, fmt.Errorf("compress: plan set tiling %dx%d does not match layout %dx%d",
			rbs, cbs, lay.RowBlocks, lay.ColBlocks)
	}
	ps := &PlanSet{Tiles: make([][]TilePlans, rbs)}
	for rb := 0; rb < rbs; rb++ {
		ps.Tiles[rb] = make([]TilePlans, cbs)
		tileRows := lay.TileRows(rb)
		words := bitset.Words64(tileRows)
		bs := bitset.New(tileRows)
		for cb := 0; cb < cbs; cb++ {
			tp := &ps.Tiles[rb][cb]
			if err := need(1); err != nil {
				return nil, err
			}
			flags := data[off]
			off++
			if flags&1 != 0 {
				tr, err := get32()
				if err != nil {
					return nil, err
				}
				groups, err := get32()
				if err != nil {
					return nil, err
				}
				if tr != tileRows || groups != lay.GroupsInTile(cb) {
					return nil, fmt.Errorf("compress: plan set tile (%d,%d) shape mismatch", rb, cb)
				}
				tp.AllRows = true
				tp.TileRows = tileRows
				tp.Words = words
				tp.Groups = groups
				tp.RowCount = int64(groups) * int64(tileRows)
				tp.OUs = int64(groups) * int64(xmath.CeilDiv(tileRows, lay.SWL))
				tp.NonEmptyGroups = groups
				continue
			}
			nGroups, err := get32()
			if err != nil {
				return nil, err
			}
			if nGroups != lay.GroupsInTile(cb) {
				return nil, fmt.Errorf("compress: plan set tile (%d,%d) has %d groups, layout wants %d",
					rb, cb, nGroups, lay.GroupsInTile(cb))
			}
			tp.Words = words
			tp.Groups = nGroups
			tp.GroupRows = make([][]int, nGroups)
			tp.Plane = make([]uint64, 0, nGroups*words)
			counts := make([]int, nGroups)
			total := 0
			mark := off
			for gi := 0; gi < nGroups; gi++ {
				n, err := get32()
				if err != nil {
					return nil, err
				}
				if err := need(2 * n); err != nil {
					return nil, err
				}
				off += 2 * n
				counts[gi] = n
				total += n
			}
			off = mark
			backing := make([]int, 0, total)
			for gi := 0; gi < nGroups; gi++ {
				off += 4 // count, already read
				start := len(backing)
				for i := 0; i < counts[gi]; i++ {
					r := int(binary.LittleEndian.Uint16(data[off:]))
					off += 2
					if r >= tileRows {
						return nil, fmt.Errorf("compress: plan set row %d outside tile of %d rows", r, tileRows)
					}
					backing = append(backing, r)
				}
				rows := backing[start:len(backing):len(backing)]
				tp.GroupRows[gi] = rows
				bs.Reset()
				for _, r := range rows {
					bs.Set(r)
				}
				tp.Plane = bitset.AppendPlane(tp.Plane, bs)
				tp.RowCount += int64(len(rows))
				tp.OUs += int64(xmath.CeilDiv(len(rows), lay.SWL))
				if len(rows) > 0 {
					tp.NonEmptyGroups++
				}
			}
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("compress: plan set has %d trailing bytes", len(data)-off)
	}
	return ps, nil
}
