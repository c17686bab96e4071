package compress

import (
	"testing"

	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/xrand"
)

// randomStructure builds a randomized sparse layer for roundtrip tests.
func randomStructure(r *xrand.RNG) (*Structure, *CodeSource, quant.Params, mapping.Geometry) {
	p := quant.Params{WBits: 8, ABits: 8, CellBits: 2, DACBits: 1}
	rows := 1 + r.Intn(90)
	cols := 1 + r.Intn(10)
	codes := &CodeSource{Rows: rows, Cols: cols, Codes: make([]uint32, rows*cols)}
	for i := range codes.Codes {
		if !r.Bernoulli(0.6) {
			codes.Codes[i] = uint32(r.Intn(1 << uint(p.WBits)))
		}
	}
	g := mapping.Geometry{
		XbarRows: 8 + r.Intn(40),
		XbarCols: 4 * (1 + r.Intn(8)),
		SWL:      1 + r.Intn(8),
	}
	g.SBL = 1 + r.Intn(g.XbarCols)
	return Build(codes, p, g), codes, p, g
}

// TestStructurePlaneRoundTrip proves AppendPlanes →
// NewStructureFromPlanes reproduces a structure exactly: every group
// bitset, the compression accounting of every scheme, and the derived
// ORC plan set all match the original bit for bit.
func TestStructurePlaneRoundTrip(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 10; trial++ {
		s, _, p, g := randomStructure(r)
		planes := s.AppendPlanes(make([]uint64, 0, s.PlaneWords()))
		if len(planes) != s.PlaneWords() {
			t.Fatalf("trial %d: AppendPlanes wrote %d words, PlaneWords says %d",
				trial, len(planes), s.PlaneWords())
		}
		slicePlanes := s.AppendSlicePlanes(make([]uint64, 0, s.PlaneWords()))
		if len(slicePlanes) != s.PlaneWords() {
			t.Fatalf("trial %d: AppendSlicePlanes wrote %d words, PlaneWords says %d",
				trial, len(slicePlanes), s.PlaneWords())
		}
		back, err := NewStructureFromPlanes(s.Layout.Rows, s.Layout.LogicalCols, p, g, planes, slicePlanes, s.NonZeroCells())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lay := s.Layout
		if back.Layout != lay {
			t.Fatalf("trial %d: layout diverged", trial)
		}
		for rb := 0; rb < lay.RowBlocks; rb++ {
			for cb := 0; cb < lay.ColBlocks; cb++ {
				for gi := 0; gi < lay.GroupsInTile(cb); gi++ {
					a := s.GroupNonZeroRows(rb, cb, gi)
					b := back.GroupNonZeroRows(rb, cb, gi)
					sa := s.SliceGroupNonZeroRows(rb, cb, gi)
					sb := back.SliceGroupNonZeroRows(rb, cb, gi)
					if a.Count() != b.Count() || sa.Count() != sb.Count() {
						t.Fatalf("trial %d (%d,%d,%d): group count %d vs %d (slice %d vs %d)",
							trial, rb, cb, gi, a.Count(), b.Count(), sa.Count(), sb.Count())
					}
					for row := 0; row < lay.TileRows(rb); row++ {
						if a.Test(row) != b.Test(row) || sa.Test(row) != sb.Test(row) {
							t.Fatalf("trial %d (%d,%d,%d): row %d differs", trial, rb, cb, gi, row)
						}
					}
				}
			}
		}
		for _, sc := range []Scheme{Baseline, Naive, ReCom, ORC, Ideal, WSS} {
			if s.CompressedCells(sc, 5) != back.CompressedCells(sc, 5) ||
				s.IndexStorageBits(sc, 5) != back.IndexStorageBits(sc, 5) ||
				s.EmptyGroups(sc, 5) != back.EmptyGroups(sc, 5) {
				t.Fatalf("trial %d: scheme %v accounting diverged", trial, sc)
			}
		}
		comparePlanSets(t, s.PlanSet(ORC, 5, CacheMetrics{}), back.PlanSet(ORC, 5, CacheMetrics{}), s.Layout)
		comparePlanSets(t, s.PlanSet(WSS, 5, CacheMetrics{}), back.PlanSet(WSS, 5, CacheMetrics{}), s.Layout)
	}
}

// comparePlanSets checks two plan sets describe identical execution
// state: equal tile scalars and equal plane words.
func comparePlanSets(t *testing.T, a, b *PlanSet, lay mapping.Layout) {
	t.Helper()
	if len(a.Tiles) != len(b.Tiles) {
		t.Fatalf("tile row count %d vs %d", len(a.Tiles), len(b.Tiles))
	}
	for rb := range a.Tiles {
		for cb := range a.Tiles[rb] {
			ta, tb := &a.Tiles[rb][cb], &b.Tiles[rb][cb]
			if ta.AllRows != tb.AllRows || ta.Words != tb.Words || ta.Groups != tb.Groups ||
				ta.RowCount != tb.RowCount || ta.OUs != tb.OUs ||
				ta.NonEmptyGroups != tb.NonEmptyGroups {
				t.Fatalf("tile (%d,%d) scalars diverged:\n %+v\n %+v", rb, cb, ta, tb)
			}
			if ta.AllRows {
				if ta.TileRows != tb.TileRows {
					t.Fatalf("tile (%d,%d) TileRows %d vs %d", rb, cb, ta.TileRows, tb.TileRows)
				}
				continue
			}
			if len(ta.Plane) != len(tb.Plane) {
				t.Fatalf("tile (%d,%d) plane length %d vs %d", rb, cb, len(ta.Plane), len(tb.Plane))
			}
			for i := range ta.Plane {
				if ta.Plane[i] != tb.Plane[i] {
					t.Fatalf("tile (%d,%d) plane word %d differs", rb, cb, i)
				}
			}
		}
	}
}

// TestStructureFromPlanesNeedsBothPlanes proves the slice plane is as
// mandatory as the structure plane: a nil slice plane, and either plane
// one word short, are rejected rather than adopted.
func TestStructureFromPlanesNeedsBothPlanes(t *testing.T) {
	r := xrand.New(19)
	for trial := 0; trial < 10; trial++ {
		s, _, p, g := randomStructure(r)
		planes := s.AppendPlanes(nil)
		slicePlanes := s.AppendSlicePlanes(nil)
		short := func(pl []uint64) []uint64 { return pl[:len(pl)-1] }
		for name, pair := range map[string][2][]uint64{
			"nil slice plane":             {planes, nil},
			"slice plane one word short":  {planes, short(slicePlanes)},
			"struct plane one word short": {short(planes), slicePlanes},
		} {
			if _, err := NewStructureFromPlanes(s.Layout.Rows, s.Layout.LogicalCols, p, g, pair[0], pair[1], s.NonZeroCells()); err == nil {
				t.Fatalf("trial %d: %s accepted", trial, name)
			}
		}
	}
}
