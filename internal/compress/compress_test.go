package compress

import (
	"math"
	"slices"
	"testing"

	"sre/internal/mapping"
	"sre/internal/parallel"
	"sre/internal/quant"
	"sre/internal/tensor"
	"sre/internal/xrand"
)

// oneCell is a quantization where each weight is one cell — handy for
// tests that reason at weight granularity.
var oneCell = quant.Params{WBits: 4, ABits: 4, CellBits: 4, DACBits: 1}

func codeSource(rows, cols int, vals []uint32) *CodeSource {
	if len(vals) != rows*cols {
		panic("bad test matrix")
	}
	return &CodeSource{Rows: rows, Cols: cols, Codes: vals}
}

// TestFigure8ORCExample reproduces Fig. 8(b): a 4×4 crossbar with 2×2
// OUs where OU1's 2nd row, OU2's 1st row, OU3's 1st row and OU4's 2nd
// row are zero. ORC must retain rows {0,3} for the left column group and
// {1,2} for the right one, while no full crossbar row is removable.
func TestFigure8ORCExample(t *testing.T) {
	src := codeSource(4, 4, []uint32{
		1, 2, 0, 0, // row 0: zero in right group (OU3 1st row)
		0, 0, 3, 1, // row 1: zero in left group (OU1 2nd row)
		0, 0, 2, 2, // row 2: zero in left group (OU2 1st row)
		2, 1, 0, 0, // row 3: zero in right group (OU4 2nd row)
	})
	g := mapping.Geometry{XbarRows: 4, XbarCols: 4, SWL: 2, SBL: 2}
	s := Build(src, oneCell, g)

	left := s.Plan(ORC, 0, 0, 0, 0)
	right := s.Plan(ORC, 0, 0, 1, 0)
	if len(left.Rows) != 2 || left.Rows[0] != 0 || left.Rows[1] != 3 {
		t.Fatalf("left group rows = %v, want [0 3]", left.Rows)
	}
	if len(right.Rows) != 2 || right.Rows[0] != 1 || right.Rows[1] != 2 {
		t.Fatalf("right group rows = %v, want [1 2]", right.Rows)
	}
	// No crossbar row is fully zero, so Naive and ReCom remove nothing.
	naive := s.Plan(Naive, 0, 0, 0, 0)
	if len(naive.Rows) != 4 {
		t.Fatalf("naive rows = %v, want all 4", naive.Rows)
	}
	recom := s.Plan(ReCom, 0, 0, 0, 0)
	if len(recom.Rows) != 4 {
		t.Fatalf("recom rows = %v, want all 4", recom.Rows)
	}
	// ORC halves the mapped cells: 8 OU-rows of 2 cells → 4 rows of 2.
	if got := s.CompressionRatio(ORC, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("ORC ratio = %v, want 2", got)
	}
}

// TestNaiveFinerThanReCom reproduces the §7.1 observation: a crossbar row
// can be all-zero while its weight-matrix row is not (the row spans
// several crossbars), so Naive removes at least as much as ReCom.
func TestNaiveFinerThanReCom(t *testing.T) {
	// 2 rows × 8 cols, crossbar width 4 → two column blocks. Row 0 is
	// zero in block 0 but non-zero in block 1.
	src := codeSource(2, 8, []uint32{
		0, 0, 0, 0, 5, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 2,
	})
	g := mapping.Geometry{XbarRows: 4, XbarCols: 4, SWL: 2, SBL: 2}
	s := Build(src, oneCell, g)
	naiveB0 := s.Plan(Naive, 0, 0, 0, 0)
	if len(naiveB0.Rows) != 1 || naiveB0.Rows[0] != 1 {
		t.Fatalf("naive block0 rows = %v, want [1]", naiveB0.Rows)
	}
	recomB0 := s.Plan(ReCom, 0, 0, 0, 0)
	if len(recomB0.Rows) != 2 {
		t.Fatalf("recom block0 rows = %v, want both", recomB0.Rows)
	}
	if s.CompressionRatio(Naive, 0) <= s.CompressionRatio(ReCom, 0) {
		t.Fatal("naive must compress at least as well as ReCom here")
	}
}

func TestBaselinePlanKeepsEverything(t *testing.T) {
	src := codeSource(3, 2, []uint32{0, 0, 0, 0, 0, 0})
	g := mapping.Geometry{XbarRows: 4, XbarCols: 4, SWL: 2, SBL: 2}
	s := Build(src, oneCell, g)
	p := s.Plan(Baseline, 0, 0, 0, 0)
	if len(p.Rows) != 3 || p.StorageBits != 0 {
		t.Fatalf("baseline plan = %+v", p)
	}
	if s.CompressionRatio(Baseline, 0) != 1 {
		t.Fatal("baseline ratio must be 1")
	}
}

// TestBitLevelGroupDetection: with multi-cell weights, a group covering
// only the high cells of a small-magnitude weight must see zero rows even
// though the weight itself is non-zero.
func TestBitLevelGroupDetection(t *testing.T) {
	// 4-bit weights, 2-bit cells → 2 cells per weight. Weight code 3 =
	// 0b0011 has a non-zero low cell and a zero high cell.
	p := quant.Params{WBits: 4, ABits: 4, CellBits: 2, DACBits: 1}
	src := codeSource(2, 1, []uint32{3, 3})
	g := mapping.Geometry{XbarRows: 2, XbarCols: 2, SWL: 2, SBL: 1}
	s := Build(src, p, g)
	low := s.GroupNonZeroRows(0, 0, 0)
	high := s.GroupNonZeroRows(0, 0, 1)
	if low.Count() != 2 {
		t.Fatalf("low-cell group rows = %d, want 2", low.Count())
	}
	if high.Count() != 0 {
		t.Fatalf("high-cell group rows = %d, want 0 (bit-level sparsity)", high.Count())
	}
}

func TestSchemeOrderingOnRandomSSLMatrix(t *testing.T) {
	r := xrand.New(1)
	w := tensor.New(256, 64)
	for i := range w.Data() {
		w.Data()[i] = float32(r.NormFloat64())
	}
	// SSL-like structure: zero 60% of rows entirely, then 40% of the rest.
	for row := 0; row < 256; row++ {
		if r.Bernoulli(0.6) {
			for c := 0; c < 64; c++ {
				w.Set(0, row, c)
			}
		}
	}
	for i := range w.Data() {
		if r.Bernoulli(0.4) {
			w.Data()[i] = 0
		}
	}
	p := quant.Default()
	s := Build(NewFloatSource(w, p), p, mapping.Default())
	ideal := s.CompressionRatio(Ideal, 0)
	orc := s.CompressionRatio(ORC, 0)
	naive := s.CompressionRatio(Naive, 0)
	recom := s.CompressionRatio(ReCom, 0)
	if !(ideal >= orc && orc >= naive && naive >= recom && recom >= 1) {
		t.Fatalf("ordering violated: ideal %v orc %v naive %v recom %v", ideal, orc, naive, recom)
	}
	if orc < 2 {
		t.Fatalf("ORC ratio %v suspiciously low for this structure", orc)
	}
}

func TestSmallerOUCompressesMore(t *testing.T) {
	r := xrand.New(2)
	w := tensor.New(128, 32)
	for i := range w.Data() {
		if r.Bernoulli(0.3) {
			w.Data()[i] = float32(r.NormFloat64())
		}
	}
	p := quant.Default()
	prev := -1.0
	for _, ou := range []int{128, 64, 32, 16, 8, 4, 2} {
		g := mapping.Default().WithOU(ou)
		s := Build(NewFloatSource(w, p), p, g)
		ratio := s.CompressionRatio(ORC, 0)
		if prev > 0 && ratio < prev-1e-9 {
			t.Fatalf("ratio decreased at OU %d: %v < %v", ou, ratio, prev)
		}
		prev = ratio
	}
}

func TestZeroPaddingCostsCompression(t *testing.T) {
	r := xrand.New(3)
	w := tensor.New(256, 16)
	for i := range w.Data() {
		if r.Bernoulli(0.05) { // very sparse → long gaps → padding matters
			w.Data()[i] = 1
		}
	}
	p := quant.Default()
	s := Build(NewFloatSource(w, p), p, mapping.Default())
	unpadded := s.CompressionRatio(ORC, 0)
	padded2 := s.CompressionRatio(ORC, 2)
	padded5 := s.CompressionRatio(ORC, 5)
	if padded2 > unpadded || padded5 > unpadded {
		t.Fatal("padding cannot improve the ratio")
	}
	if padded2 > padded5 {
		t.Fatal("narrower codes must pad at least as much")
	}
	// But narrower codes store fewer bits per index... per entry; total
	// storage tradeoff is what ChooseIndexBits balances.
	bits := s.ChooseIndexBits(0.1)
	if bits < 1 || bits > 7 {
		t.Fatalf("ChooseIndexBits = %d", bits)
	}
	if s.CompressionRatio(ORC, bits) < unpadded*0.9-1e-9 {
		t.Fatal("chosen bits lose more than 10% of the ratio")
	}
}

func TestIndexStorageAccounting(t *testing.T) {
	src := codeSource(4, 4, []uint32{
		1, 2, 0, 0,
		0, 0, 3, 1,
		0, 0, 2, 2,
		2, 1, 0, 0,
	})
	g := mapping.Geometry{XbarRows: 4, XbarCols: 4, SWL: 2, SBL: 2}
	s := Build(src, oneCell, g)
	// ORC with 3-bit indexes: 2 groups × 2 entries × 3 bits.
	if got := s.IndexStorageBits(ORC, 3); got != 12 {
		t.Fatalf("ORC storage = %d bits, want 12", got)
	}
	// Naive: one stream per tile: 4 entries × 3 bits (nothing removed).
	if got := s.IndexStorageBits(Naive, 3); got != 12 {
		t.Fatalf("naive storage = %d bits, want 12", got)
	}
	// Absolute indexes: every non-zero group row × log2(4) bits = 4·2·... :
	// group0 has rows {0,3}, group1 {1,2} → 4 rows × 2 bits = 8.
	if got := s.AbsoluteIndexBits(); got != 8 {
		t.Fatalf("absolute storage = %d bits, want 8", got)
	}
}

func TestDeltaBeatsAbsoluteOnSparseLayers(t *testing.T) {
	r := xrand.New(4)
	w := tensor.New(512, 64)
	for i := range w.Data() {
		if r.Bernoulli(0.15) {
			w.Data()[i] = 1
		}
	}
	p := quant.Default()
	s := Build(NewFloatSource(w, p), p, mapping.Default())
	bits := s.ChooseIndexBits(0.1)
	delta := s.IndexStorageBits(ORC, bits)
	abs := s.AbsoluteIndexBits()
	if delta >= abs {
		t.Fatalf("delta (%d bits) should beat absolute (%d bits)", delta, abs)
	}
}

func TestSNrramCompressedCells(t *testing.T) {
	// 4 rows × 2 cols, segments of 2 rows. Column 0 has a zero first
	// segment; column 1 is dense.
	src := codeSource(4, 2, []uint32{
		0, 1,
		0, 2,
		3, 1,
		0, 2,
	})
	_, got := BuildOn(nil, src, oneCell, mapping.Default(), 2)
	// Kept segments: col0 seg1 (2 rows) + col1 both segs (4 rows) = 6
	// weights × 1 cell.
	if got != 6 {
		t.Fatalf("SNrram kept %d cells, want 6", got)
	}
	// Ragged tail: 3 rows with segRows 2 → final 1-row segment.
	src2 := codeSource(3, 1, []uint32{0, 0, 7})
	if _, got := BuildOn(nil, src2, oneCell, mapping.Default(), 2); got != 1 {
		t.Fatalf("ragged SNrram kept %d, want 1", got)
	}
}

// snrramReference is the serial SNrram scan BuildOn's count replaced,
// kept as the reference TestBuildOnMatchesSerial holds it to.
func snrramReference(src Source, p quant.Params, segRows int) int64 {
	rows, cols := src.Dims()
	cpw := int64(p.CellsPerWeight())
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

// TestBuildOnMatchesSerial: at any pool width, BuildOn's planes,
// non-zero cells and SNrram count equal a serial scan's, for segment
// heights that divide the crossbar height, do not, and exceed it.
func TestBuildOnMatchesSerial(t *testing.T) {
	p := quant.Params{WBits: 8, ABits: 8, CellBits: 2, DACBits: 1}
	g := mapping.Geometry{XbarRows: 16, XbarCols: 16, SWL: 4, SBL: 4}
	r := xrand.New(11)
	for _, dims := range [][2]int{{1, 1}, {37, 9}, {200, 23}, {513, 40}} {
		codes := make([]uint32, dims[0]*dims[1])
		for i := range codes {
			if r.Bernoulli(0.3) {
				codes[i] = uint32(r.Intn(256))
			}
		}
		src := codeSource(dims[0], dims[1], codes)
		for _, segRows := range []int{1, 4, 9, 25, 40} {
			want, wantKept := BuildOn(nil, src, p, g, segRows)
			if ref := snrramReference(src, p, segRows); wantKept != ref {
				t.Fatalf("%v seg %d: serial BuildOn kept %d, reference %d", dims, segRows, wantKept, ref)
			}
			for _, width := range []int{2, 3, 4} {
				got, kept := BuildOn(parallel.New(width), src, p, g, segRows)
				if kept != wantKept || got.NonZeroCells() != want.NonZeroCells() ||
					!slices.Equal(got.AppendSlicePlanes(got.AppendPlanes(nil)), want.AppendSlicePlanes(want.AppendPlanes(nil))) {
					t.Fatalf("%v seg %d width %d: pooled scan differs from the serial one", dims, segRows, width)
				}
			}
		}
	}
}

func TestFloatSourceQuantization(t *testing.T) {
	w := tensor.New(2, 2)
	w.Set(1, 0, 0)
	w.Set(-0.5, 1, 1)
	fs := NewFloatSource(w, quant.Default())
	dst := make([]uint32, 2)
	fs.RowCodes(0, dst)
	if dst[0] != 65535 || dst[1] != 0 {
		t.Fatalf("row 0 codes = %v", dst)
	}
	fs.RowCodes(1, dst)
	if dst[0] != 0 || dst[1] == 0 {
		t.Fatalf("row 1 codes = %v (negative weights keep magnitude)", dst)
	}
}

func BenchmarkBuildStructure(b *testing.B) {
	// A VGG-16 mid-layer: 4608×512 weights at 70% sparsity.
	r := xrand.New(1)
	w := tensor.New(4608, 512)
	for i := range w.Data() {
		if !r.Bernoulli(0.7) {
			w.Data()[i] = float32(r.NormFloat64())
		}
	}
	p := quant.Default()
	src := NewFloatSource(w, p)
	g := mapping.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(src, p, g)
	}
}

func BenchmarkPlanORC(b *testing.B) {
	r := xrand.New(2)
	w := tensor.New(512, 64)
	for i := range w.Data() {
		if !r.Bernoulli(0.8) {
			w.Data()[i] = float32(r.NormFloat64())
		}
	}
	p := quant.Default()
	s := Build(NewFloatSource(w, p), p, mapping.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rb := 0; rb < s.Layout.RowBlocks; rb++ {
			for cb := 0; cb < s.Layout.ColBlocks; cb++ {
				for gi := 0; gi < s.Layout.GroupsInTile(cb); gi++ {
					_ = s.Plan(ORC, rb, cb, gi, 5)
				}
			}
		}
	}
}
