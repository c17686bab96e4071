package mapping

import (
	"testing"

	"sre/internal/quant"
)

func TestDefaultGeometry(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.XbarRows != 128 || g.SWL != 16 {
		t.Fatalf("unexpected default %+v", g)
	}
}

func TestValidate(t *testing.T) {
	bad := []Geometry{
		{XbarRows: 0, XbarCols: 128, SWL: 16, SBL: 16},
		{XbarRows: 128, XbarCols: 128, SWL: 0, SBL: 16},
		{XbarRows: 128, XbarCols: 128, SWL: 256, SBL: 16},
		{XbarRows: 128, XbarCols: 128, SWL: 16, SBL: 256},
		{XbarRows: 2048, XbarCols: 2048, SWL: 16, SBL: 16},
		{XbarRows: 128, XbarCols: 1 << 30, SWL: 16, SBL: 16},
	}
	for _, g := range bad {
		if g.Validate() == nil {
			t.Fatalf("accepted %+v", g)
		}
	}
	if err := (Geometry{XbarRows: maxCrossbar, XbarCols: maxCrossbar, SWL: 16, SBL: 16}).Validate(); err != nil {
		t.Fatalf("rejected the largest crossbar: %v", err)
	}
}

func TestLayoutVGGConvExample(t *testing.T) {
	// conv3x512 over 512 channels: R = 512·9 = 4608 rows, C = 512.
	// 16-bit weights in 2-bit cells → 8 cells/weight → 4096 phys cols.
	l := NewLayout(4608, 512, quant.Default(), Default())
	if l.PhysCols != 4096 {
		t.Fatalf("PhysCols = %d", l.PhysCols)
	}
	if l.RowBlocks != 36 || l.ColBlocks != 32 {
		t.Fatalf("blocks = %dx%d", l.RowBlocks, l.ColBlocks)
	}
	if l.TotalArrays() != 36*32 {
		t.Fatal("TotalArrays wrong")
	}
	if l.TotalCells() != int64(4608)*4096 {
		t.Fatal("TotalCells wrong")
	}
}

func TestRaggedEdges(t *testing.T) {
	// 130 rows / 20 logical cols: last row block has 2 rows; phys cols =
	// 160 → last col block has 32 cols → 2 full groups.
	l := NewLayout(130, 20, quant.Default(), Default())
	if l.RowBlocks != 2 || l.ColBlocks != 2 {
		t.Fatalf("blocks %dx%d", l.RowBlocks, l.ColBlocks)
	}
	if l.TileRows(0) != 128 || l.TileRows(1) != 2 {
		t.Fatalf("tile rows %d/%d", l.TileRows(0), l.TileRows(1))
	}
	if l.TileCols(1) != 32 {
		t.Fatalf("tile cols(1) = %d", l.TileCols(1))
	}
	if l.GroupsInTile(1) != 2 {
		t.Fatalf("groups in last tile = %d", l.GroupsInTile(1))
	}
}

func TestGroupColsRagged(t *testing.T) {
	// 10 phys cols with SBL 16: one short group.
	l := NewLayout(16, 10, quant.Params{WBits: 2, ABits: 2, CellBits: 2, DACBits: 1}, Geometry{XbarRows: 16, XbarCols: 16, SWL: 4, SBL: 16})
	if l.PhysCols != 10 || l.GroupsInTile(0) != 1 {
		t.Fatalf("layout %+v", l)
	}
	lo, hi := l.GroupCols(0, 0)
	if lo != 0 || hi != 10 {
		t.Fatalf("group cols [%d,%d)", lo, hi)
	}
}

func TestOUsPerTileBaseline(t *testing.T) {
	l := NewLayout(128, 16, quant.Default(), Default())
	// Tile 0: 128 cols (16 weights × 8 cells) → 8 groups; 128 rows → 8 OU
	// rows per group → 64 OUs, matching a full 128×128 tile of 16×16 OUs.
	if got := l.OUsPerTileBaseline(0, 0); got != 64 {
		t.Fatalf("baseline OUs = %d, want 64", got)
	}
}

func TestWithOU(t *testing.T) {
	g := Default().WithOU(32)
	if g.SWL != 32 || g.SBL != 32 {
		t.Fatal("WithOU wrong")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLayout(10, 10, quant.Default(), Geometry{XbarRows: -1, XbarCols: 1, SWL: 1, SBL: 1})
}
