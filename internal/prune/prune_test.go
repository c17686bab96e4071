package prune

import (
	"math"
	"testing"

	"sre/internal/tensor"
	"sre/internal/xrand"
)

func filledMatrix(r, c int) *tensor.Tensor {
	w := tensor.New(r, c)
	for i := range w.Data() {
		w.Data()[i] = float32(i%7 + 1)
	}
	return w
}

func TestSpecValidate(t *testing.T) {
	if (Spec{RowFrac: 1.5}).Validate() == nil {
		t.Fatal("accepted fraction > 1")
	}
	if (Spec{ElemFrac: -0.1}).Validate() == nil {
		t.Fatal("accepted negative fraction")
	}
	if (Spec{SegFrac: math.NaN()}).Validate() == nil {
		t.Fatal("accepted a NaN fraction")
	}
	if (Spec{RowFrac: 0.5, ColFrac: 0.5, ElemFrac: 0.5}).Validate() != nil {
		t.Fatal("rejected valid spec")
	}
}

func TestTotalSparsityFormula(t *testing.T) {
	s := Spec{RowFrac: 0.5, ColFrac: 0.2, ElemFrac: 0.25}
	want := 1 - 0.5*0.8*0.75
	if math.Abs(s.TotalSparsity()-want) > 1e-12 {
		t.Fatalf("TotalSparsity = %v, want %v", s.TotalSparsity(), want)
	}
}

func TestElemFracForInvertsTotalSparsity(t *testing.T) {
	for _, target := range []float64{0.3, 0.5, 0.9, 0.95} {
		for _, rf := range []float64{0, 0.2, 0.5} {
			e := ElemFracFor(target, rf, 0.1)
			s := Spec{RowFrac: rf, ColFrac: 0.1, ElemFrac: e}
			got := s.TotalSparsity()
			if e > 0 && e < 1 && math.Abs(got-target) > 1e-9 {
				t.Fatalf("target %v rf %v: got %v", target, rf, got)
			}
		}
	}
	// Structured zeros exceeding target → clamp to 0 extra.
	if ElemFracFor(0.3, 0.9, 0) != 0 {
		t.Fatal("over-structured case should clamp")
	}
}

func TestApplyMatrixRowAndColStructure(t *testing.T) {
	w := filledMatrix(100, 40)
	ApplyMatrix(w, Spec{RowFrac: 0.3, ColFrac: 0.1}, xrand.New(1))
	// Exactly 30 rows must be fully zero.
	if got := MatrixRowSparsity(w); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("row sparsity = %v", got)
	}
	// Exactly 4 columns fully zero.
	zeroCols := 0
	for j := 0; j < 40; j++ {
		all := true
		for i := 0; i < 100; i++ {
			if w.At(i, j) != 0 {
				all = false
				break
			}
		}
		if all {
			zeroCols++
		}
	}
	// Zero columns could exceed 4 only if a column were zeroed by row
	// overlap, impossible here (rows zero 30 of 100 entries per column).
	if zeroCols != 4 {
		t.Fatalf("zero columns = %d, want 4", zeroCols)
	}
}

func TestApplyMatrixTotalSparsityCalibration(t *testing.T) {
	target := 0.91
	rf := 0.5
	e := ElemFracFor(target, rf, 0)
	w := filledMatrix(200, 120)
	ApplyMatrix(w, Spec{RowFrac: rf, ElemFrac: e}, xrand.New(2))
	got := w.Sparsity()
	if math.Abs(got-target) > 0.02 {
		t.Fatalf("sparsity %v, want ~%v", got, target)
	}
}

func TestMagnitude(t *testing.T) {
	w := []float32{0.1, -0.5, 0.02, 3, -0.01, 0}
	Magnitude(w, 0.5) // 3 of 6 zero; one already zero → zero 2 smallest
	if w[4] != 0 || w[2] != 0 {
		t.Fatal("smallest magnitudes not zeroed")
	}
	if w[3] != 3 || w[1] != -0.5 {
		t.Fatal("large magnitudes must survive")
	}
	zeros := 0
	for _, v := range w {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 3 {
		t.Fatalf("zeros = %d, want 3", zeros)
	}
}

func TestMagnitudeEdgeCases(t *testing.T) {
	w := []float32{1, 2}
	Magnitude(w, 0)
	if w[0] != 1 {
		t.Fatal("target 0 must be a no-op")
	}
	Magnitude(w, 1)
	if w[0] != 0 || w[1] != 0 {
		t.Fatal("target 1 must zero everything")
	}
	Magnitude(nil, 0.5) // must not panic
}

// TestSSLvsGSLStructure verifies the property the whole evaluation rests
// on: at equal total sparsity, SSL-style pruning yields far more all-zero
// matrix rows than GSL-style pruning.
func TestSSLvsGSLStructure(t *testing.T) {
	target := 0.9
	ssl := filledMatrix(256, 64)
	gsl := filledMatrix(256, 64)
	ApplyMatrix(ssl, Spec{RowFrac: 0.7, ElemFrac: ElemFracFor(target, 0.7, 0)}, xrand.New(5))
	ApplyMatrix(gsl, Spec{ElemFrac: target}, xrand.New(6))
	if math.Abs(ssl.Sparsity()-gsl.Sparsity()) > 0.03 {
		t.Fatalf("total sparsities differ too much: %v vs %v", ssl.Sparsity(), gsl.Sparsity())
	}
	sslRows, gslRows := MatrixRowSparsity(ssl), MatrixRowSparsity(gsl)
	if sslRows < 0.65 {
		t.Fatalf("SSL row sparsity %v too low", sslRows)
	}
	if gslRows > 0.05 {
		t.Fatalf("GSL row sparsity %v unexpectedly high", gslRows)
	}
}

// TestSegmentRowsBlockConsistency: with SegRows = 4, the zero decision
// for a (block, segment) must apply to all four rows identically.
func TestSegmentRowsBlockConsistency(t *testing.T) {
	w := filledMatrix(64, 32)
	spec := Spec{SegFrac: 0.5, SegCols: 4, SegRows: 4}
	ApplyMatrix(w, spec, xrand.New(3))
	for blk := 0; blk < 16; blk++ {
		for seg := 0; seg < 8; seg++ {
			zero := w.At(blk*4, seg*4) == 0
			for dr := 0; dr < 4; dr++ {
				for dc := 0; dc < 4; dc++ {
					if (w.At(blk*4+dr, seg*4+dc) == 0) != zero {
						t.Fatalf("block (%d,%d) not uniformly zeroed", blk, seg)
					}
				}
			}
		}
	}
	if s := w.Sparsity(); s < 0.3 || s > 0.7 {
		t.Fatalf("segment sparsity %v implausible for frac 0.5", s)
	}
}

// legacyApplyMatrix is ApplyMatrix as it was written before the Rows
// replay: one pass that draws and zeroes in place. FuzzPruneRows holds
// the replay to its zeros.
func legacyApplyMatrix(w *tensor.Tensor, spec Spec, rng *xrand.RNG) {
	r, c := w.Dim(0), w.Dim(1)
	zeroRows := pickSet(rng.Split("rows"), r, spec.RowFrac)
	zeroCols := pickSet(rng.Split("cols"), c, spec.ColFrac)
	er := rng.Split("elems")
	sr := rng.Split("segs")
	sc, sRows := spec.segCols(), spec.segRows()
	d := w.Data()
	segZero := make([]bool, (c+sc-1)/sc)
	for i := 0; i < r; i++ {
		rowZero := zeroRows[i]
		if i%sRows == 0 {
			for s := range segZero {
				segZero[s] = spec.SegFrac > 0 && sr.Bernoulli(spec.SegFrac)
			}
		}
		row := d[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			if rowZero || zeroCols[j] || segZero[j/sc] || er.Bernoulli(spec.ElemFrac) {
				row[j] = 0
			}
		}
	}
}

// FuzzPruneRows checks that the Rows replay, and ApplyMatrix on it,
// zero exactly the elements legacyApplyMatrix zeroes in a matrix of
// non-zero values, for arbitrary dims, fractions (0 and 1 included),
// segment shapes and seeds. A fraction is its argument over 1000,
// capped at 1.
func FuzzPruneRows(f *testing.F) {
	f.Add(uint8(17), uint8(9), uint16(150), uint16(30), uint16(120), uint16(500), int8(2), int8(9), uint64(1))
	f.Add(uint8(64), uint8(40), uint16(0), uint16(0), uint16(1000), uint16(0), int8(16), int8(1), uint64(2))
	f.Add(uint8(5), uint8(33), uint16(1000), uint16(1000), uint16(0), uint16(1000), int8(0), int8(0), uint64(3))
	f.Add(uint8(12), uint8(7), uint16(0), uint16(300), uint16(700), uint16(1000), int8(-3), int8(5), uint64(4))
	f.Fuzz(func(t *testing.T, r8, c8 uint8, rowK, colK, segK, elemK uint16, segCols, segRows int8, seed uint64) {
		r, c := int(r8)%96+1, int(c8)%96+1
		frac := func(k uint16) float64 { return float64(min(k, 1000)) / 1000 }
		spec := Spec{RowFrac: frac(rowK), ColFrac: frac(colK), SegFrac: frac(segK),
			SegCols: int(segCols), SegRows: int(segRows), ElemFrac: frac(elemK)}
		want := filledMatrix(r, c)
		legacyApplyMatrix(want, spec, xrand.New(seed))
		got := filledMatrix(r, c)
		ApplyMatrix(got, spec, xrand.New(seed))
		rows := NewRows(r, c, spec, xrand.New(seed))
		zero := make([]bool, c)
		for i := 0; i < r; i++ {
			clear(zero)
			rows.Next(zero)
			for j, z := range zero {
				w := want.At(i, j) == 0
				if z != w || (got.At(i, j) == 0) != w {
					t.Fatalf("%v on %dx%d: (%d,%d) replay zero %v, ApplyMatrix zero %v, legacy zero %v",
						spec, r, c, i, j, z, got.At(i, j) == 0, w)
				}
			}
		}
	})
}
