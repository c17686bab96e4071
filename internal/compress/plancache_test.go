package compress

import (
	"sync"
	"testing"
	"unsafe"

	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/xmath"
	"sre/internal/xrand"
)

func cacheTestStructure(t *testing.T) *Structure {
	t.Helper()
	p := quant.Params{WBits: 4, ABits: 4, CellBits: 2, DACBits: 1}
	g := mapping.Geometry{XbarRows: 32, XbarCols: 16, SWL: 4, SBL: 4}
	r := xrand.New(3)
	rows, cols := 70, 11 // multiple row and column blocks, ragged edges
	codes := make([]uint32, rows*cols)
	for i := range codes {
		if !r.Bernoulli(0.6) {
			codes[i] = uint32(r.Intn(16))
		}
	}
	return Build(&CodeSource{Rows: rows, Cols: cols, Codes: codes}, p, g)
}

// TestPlanSetMatchesPlan checks every cached field against the direct
// Plan computation for every scheme the cache serves: each group's
// plane words hold exactly Plan's rows, and Plan repeats no row, so
// the plane's popcount is the group's row count.
func TestPlanSetMatchesPlan(t *testing.T) {
	s := cacheTestStructure(t)
	lay := s.Layout
	for _, scheme := range []Scheme{Baseline, Naive, ReCom, ORC, Ideal, WSS} {
		indexBits := 3
		ps := s.PlanSet(scheme, indexBits, CacheMetrics{})
		if len(ps.Tiles) != lay.RowBlocks || len(ps.Tiles[0]) != lay.ColBlocks {
			t.Fatalf("%v: tile grid %dx%d", scheme, len(ps.Tiles), len(ps.Tiles[0]))
		}
		for rb := 0; rb < lay.RowBlocks; rb++ {
			tileRows := lay.TileRows(rb)
			for cb := 0; cb < lay.ColBlocks; cb++ {
				tp := ps.Tile(rb, cb)
				if tp.Groups != lay.GroupsInTile(cb) || tp.Words != bitset.Words64(tileRows) {
					t.Fatalf("%v tile (%d,%d): groups/words wrong", scheme, rb, cb)
				}
				if scheme == Baseline {
					// Baseline keeps every row in every group; the cache
					// stores that virtually instead of materializing
					// Groups identical full planes.
					if !tp.AllRows || tp.TileRows != tileRows {
						t.Fatalf("Baseline tile (%d,%d): AllRows=%v TileRows=%d, want true/%d",
							rb, cb, tp.AllRows, tp.TileRows, tileRows)
					}
					if tp.Plane != nil {
						t.Fatalf("Baseline tile (%d,%d): expected virtual plans, got materialized rows", rb, cb)
					}
					plan := s.Plan(Baseline, rb, cb, 0, 0)
					wantRows := int64(tp.Groups) * int64(len(plan.Rows))
					wantOUs := int64(tp.Groups) * int64(xmath.CeilDiv(len(plan.Rows), lay.SWL))
					if tp.RowCount != wantRows || tp.OUs != wantOUs {
						t.Fatalf("Baseline tile (%d,%d): static counts %d/%d want %d/%d",
							rb, cb, tp.RowCount, tp.OUs, wantRows, wantOUs)
					}
					continue
				}
				if tp.AllRows {
					t.Fatalf("%v tile (%d,%d): AllRows set for a non-Baseline scheme", scheme, rb, cb)
				}
				var wantRows, wantOUs int64
				for gi := 0; gi < tp.Groups; gi++ {
					// Baseline/Ideal normalize the key to indexBits 0.
					wantBits := indexBits
					if scheme == Baseline || scheme == Ideal {
						wantBits = 0
					}
					plan := s.Plan(scheme, rb, cb, gi, wantBits)
					mask := bitset.New(tileRows)
					for _, r := range plan.Rows {
						if mask.Test(r) {
							t.Fatalf("%v tile (%d,%d) group %d: Plan repeats row %d", scheme, rb, cb, gi, r)
						}
						mask.Set(r)
					}
					gw := tp.Plane[gi*tp.Words : (gi+1)*tp.Words]
					for w := range gw {
						if gw[w] != mask.Words()[w] {
							t.Fatalf("%v tile (%d,%d) group %d: plane word %d mismatch", scheme, rb, cb, gi, w)
						}
					}
					wantRows += int64(len(plan.Rows))
					wantOUs += int64(xmath.CeilDiv(len(plan.Rows), lay.SWL))
				}
				if tp.RowCount != wantRows || tp.OUs != wantOUs {
					t.Fatalf("%v tile (%d,%d): static counts %d/%d want %d/%d",
						scheme, rb, cb, tp.RowCount, tp.OUs, wantRows, wantOUs)
				}
			}
		}
	}
}

// TestPlanSetMemoizes checks identity reuse per key, distinct sets per
// distinct key, and the Baseline indexBits normalization.
func TestPlanSetMemoizes(t *testing.T) {
	s := cacheTestStructure(t)
	a := s.PlanSet(ORC, 3, CacheMetrics{})
	if s.PlanSet(ORC, 3, CacheMetrics{}) != a {
		t.Fatal("same key must return the cached PlanSet")
	}
	if s.PlanSet(ORC, 4, CacheMetrics{}) == a {
		t.Fatal("different index width must build a different PlanSet")
	}
	if s.PlanSet(Baseline, 3, CacheMetrics{}) != s.PlanSet(Baseline, 0, CacheMetrics{}) {
		t.Fatal("Baseline must normalize indexBits")
	}
}

// TestPlanSetGrowsSizeBytes: the first build of a plan set adds its
// tile records and plane words to the structure's SizeBytes, and a
// repeated lookup adds nothing.
func TestPlanSetGrowsSizeBytes(t *testing.T) {
	s := cacheTestStructure(t)
	before := s.SizeBytes()
	ps := s.PlanSet(ORC, 3, CacheMetrics{})
	var want int64
	for rb := range ps.Tiles {
		for cb := range ps.Tiles[rb] {
			want += int64(unsafe.Sizeof(ps.Tiles[rb][cb])) + 8*int64(len(ps.Tiles[rb][cb].Plane))
		}
	}
	if got := s.SizeBytes() - before; got != want || want == 0 {
		t.Fatalf("PlanSet(ORC, 3) grew SizeBytes by %d, want the set's %d bytes", got, want)
	}
	after := s.SizeBytes()
	s.PlanSet(ORC, 3, CacheMetrics{})
	if got := s.SizeBytes(); got != after {
		t.Fatalf("a repeated PlanSet lookup moved SizeBytes %d -> %d", after, got)
	}
}

// TestPlanSetConcurrent hammers one Structure from many goroutines the
// way RunAll's modes do; run under -race this is the cache's safety
// proof.
func TestPlanSetConcurrent(t *testing.T) {
	s := cacheTestStructure(t)
	schemes := []Scheme{Baseline, Naive, ReCom, ORC}
	var wg sync.WaitGroup
	results := make([]*PlanSet, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.PlanSet(schemes[i%len(schemes)], 3, CacheMetrics{})
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i] != s.PlanSet(schemes[i%len(schemes)], 3, CacheMetrics{}) {
			t.Fatal("concurrent PlanSet returned a non-cached instance")
		}
	}
}

func TestPlanSetRejectsOCC(t *testing.T) {
	s := cacheTestStructure(t)
	defer func() {
		if recover() == nil {
			t.Fatal("PlanSet must reject OCC")
		}
	}()
	s.PlanSet(OCC, 3, CacheMetrics{})
}

// TestPlanStatsMatchStoragePlanned cross-checks the memoized count-only
// CompressedCells/IndexStorageBits path against the uncached
// storagePlanned reference (which rebuilds every plan through Plan),
// for every scheme across several index widths.
func TestPlanStatsMatchStoragePlanned(t *testing.T) {
	s := cacheTestStructure(t)
	for _, scheme := range []Scheme{Baseline, Naive, ReCom, ORC, Ideal, WSS} {
		for _, bits := range []int{0, 1, 2, 3, 5} {
			wantCells, wantStorage := s.storagePlanned(scheme, bits)
			gotCells := s.CompressedCells(scheme, bits)
			if scheme == Ideal {
				// CompressedCells keeps the Ideal shortcut (exact non-zero
				// cells, no retained-row rounding); compare the scan itself.
				gotCells = s.planStatsFor(scheme, bits).cells
			}
			gotStorage := s.IndexStorageBits(scheme, bits)
			if gotCells != wantCells || gotStorage != wantStorage {
				t.Fatalf("%v bits=%d: stats %d/%d, storagePlanned %d/%d",
					scheme, bits, gotCells, gotStorage, wantCells, wantStorage)
			}
		}
	}
}
