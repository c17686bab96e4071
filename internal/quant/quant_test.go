package quant

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sre/internal/tensor"
	"sre/internal/xrand"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{WBits: 16, ABits: 16, CellBits: 3, DACBits: 1}, // 16 % 3 != 0
		{WBits: 16, ABits: 16, CellBits: 2, DACBits: 5}, // 16 % 5 != 0
		{WBits: 0, ABits: 16, CellBits: 2, DACBits: 1},
		{WBits: 16, ABits: 16, CellBits: 32, DACBits: 1},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("Validate accepted %+v", p)
		}
	}
}

// TestValidateCodeWidth pins the uint32 code bound: widths up to 32
// bits validate, wider ones fail with ErrCodeWidth (a 40-bit code would
// quantize to 2³²−1, not 2⁴⁰−1, and its top 8 slices could never be
// driven).
func TestValidateCodeWidth(t *testing.T) {
	for _, c := range []struct {
		p       Params
		wantErr bool
	}{
		{Params{WBits: 32, ABits: 32, CellBits: 2, DACBits: 1}, false},
		{Params{WBits: 16, ABits: 32, CellBits: 2, DACBits: 4}, false},
		{Params{WBits: 16, ABits: 40, CellBits: 2, DACBits: 1}, true},
		{Params{WBits: 40, ABits: 16, CellBits: 2, DACBits: 1}, true},
		{Params{WBits: 34, ABits: 16, CellBits: 2, DACBits: 1}, true},
		{Params{WBits: 16, ABits: 33, CellBits: 2, DACBits: 1}, true},
		{Params{WBits: 64, ABits: 64, CellBits: 16, DACBits: 16}, true},
	} {
		err := c.p.Validate()
		if got := errors.Is(err, ErrCodeWidth); got != c.wantErr {
			t.Errorf("Validate(%+v) = %v, want ErrCodeWidth: %v", c.p, err, c.wantErr)
		}
		if !c.wantErr && err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c.p, err)
		}
	}
}

func TestCountsMatchPaper(t *testing.T) {
	p := Default()
	// 16-bit weights in 2-bit cells span 8 bitlines; 16-bit inputs through
	// a 1-bit DAC need 16 slices (paper §5.3 example).
	if p.CellsPerWeight() != 8 || p.SlicesPerInput() != 16 {
		t.Fatalf("CPW=%d SPI=%d", p.CellsPerWeight(), p.SlicesPerInput())
	}
}

// TestFigure3Decomposition reproduces the worked example of Fig. 3: 4-bit
// weights split into two 2-bit cells, 2-bit inputs split into LSB/MSB
// 1-bit slices; window [1,2,3,1] becomes slices [1,0,1,1] and [0,1,1,0].
func TestFigure3Decomposition(t *testing.T) {
	p := Params{WBits: 4, ABits: 2, CellBits: 2, DACBits: 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	window := []uint32{1, 2, 3, 1}
	var lsb, msb []uint16
	for _, q := range window {
		s := p.DecomposeSlices(q, nil)
		lsb = append(lsb, s[0])
		msb = append(msb, s[1])
	}
	wantLSB := []uint16{1, 0, 1, 1}
	wantMSB := []uint16{0, 1, 1, 0}
	for i := range window {
		if lsb[i] != wantLSB[i] || msb[i] != wantMSB[i] {
			t.Fatalf("slices: lsb=%v msb=%v, want %v / %v", lsb, msb, wantLSB, wantMSB)
		}
	}
	// A 4-bit weight 0b1101 = 13 splits into cells [0b01, 0b11].
	cells := p.DecomposeCells(13, nil)
	if cells[0] != 1 || cells[1] != 3 {
		t.Fatalf("cells of 13 = %v", cells)
	}
}

func TestDecomposeComposeRoundTrip(t *testing.T) {
	ps := []Params{
		Default(),
		{WBits: 8, ABits: 8, CellBits: 1, DACBits: 2},
		{WBits: 16, ABits: 16, CellBits: 8, DACBits: 4},
		{WBits: 16, ABits: 16, CellBits: 4, DACBits: 8},
	}
	for _, p := range ps {
		f := func(q uint32) bool {
			qw := q & (1<<uint(p.WBits) - 1)
			qa := q & (1<<uint(p.ABits) - 1)
			return p.ComposeCells(p.DecomposeCells(qw, nil)) == qw &&
				p.ComposeSlices(p.DecomposeSlices(qa, nil)) == qa
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
	}
}

func TestQuantizeUnsignedEdges(t *testing.T) {
	if QuantizeUnsigned(0, 8, 1) != 0 {
		t.Fatal("zero must quantize to code 0")
	}
	if QuantizeUnsigned(-3, 8, 1) != 0 {
		t.Fatal("negative input must quantize to 0 (magnitude handled by caller)")
	}
	if QuantizeUnsigned(1e9, 8, 1) != 255 {
		t.Fatal("overflow must clamp to top code")
	}
	// Top of range maps to top code exactly.
	scale := ScaleFor(10, 8)
	if QuantizeUnsigned(10, 8, scale) != 255 {
		t.Fatal("maxAbs must hit top code")
	}
}

func TestScaleForZero(t *testing.T) {
	if ScaleFor(0, 16) != 1 {
		t.Fatal("zero maxAbs should give scale 1")
	}
}

func TestQuantizeMatrixPreservesZerosAndSigns(t *testing.T) {
	w := tensor.New(3, 2)
	w.Set(0.5, 0, 0)
	w.Set(-0.25, 1, 1)
	// (2,0) stays exactly zero.
	m := QuantizeMatrix(w, Default())
	if m.At(2, 0) != 0 {
		t.Fatal("exact zero must quantize to code 0")
	}
	if !m.Neg[1*2+1] || m.Neg[0] {
		t.Fatal("signs not preserved")
	}
	if m.Dequantize(0, 0) <= 0 || m.Dequantize(1, 1) >= 0 {
		t.Fatal("Dequantize signs wrong")
	}
	// Dequantization error bounded by scale/2.
	if math.Abs(m.Dequantize(0, 0)-0.5) > m.Scale/2+1e-12 {
		t.Fatal("Dequantize error too large")
	}
}

func TestCellMatrixLayoutLSBFirst(t *testing.T) {
	p := Params{WBits: 4, ABits: 4, CellBits: 2, DACBits: 1}
	w := tensor.New(1, 2)
	w.Set(1.0, 0, 0) // quantizes to 15 = 0b1111 → cells [3,3]
	w.Set(0.2, 0, 1) // 0.2/ (1/15) = 3 → cells [3,0]
	m := QuantizeMatrix(w, p)
	cm := m.Decompose()
	if cm.PhysCols != 4 || cm.Rows != 1 {
		t.Fatalf("phys shape %dx%d", cm.Rows, cm.PhysCols)
	}
	if cm.Cell(0, 0) != 3 || cm.Cell(0, 1) != 3 {
		t.Fatalf("col0 cells = %d,%d", cm.Cell(0, 0), cm.Cell(0, 1))
	}
	if cm.Cell(0, 2) != 3 || cm.Cell(0, 3) != 0 {
		t.Fatalf("col1 cells = %d,%d", cm.Cell(0, 2), cm.Cell(0, 3))
	}
}

// TestBitLevelSparsityMonotonicity checks the Fig. 4 mechanism: for the
// same weights, fewer bits per cell (more cells per weight) exposes more
// zero cells, i.e. density decreases.
func TestBitLevelSparsityMonotonicity(t *testing.T) {
	r := xrand.New(4)
	w := tensor.New(64, 64)
	for i := range w.Data() {
		if r.Bernoulli(0.7) { // 30% exact zeros
			w.Data()[i] = float32(math.Abs(r.NormFloat64()) * 0.2) // mostly small values
		}
	}
	var prev float64 = -1
	for _, cb := range []int{1, 2, 4, 8, 16} {
		p := Params{WBits: 16, ABits: 16, CellBits: cb, DACBits: 1}
		d := QuantizeMatrix(w, p).Decompose().Density()
		if d < 0 || d > 1 {
			t.Fatalf("density out of range: %v", d)
		}
		if d < prev {
			t.Fatalf("density not non-decreasing with CellBits: %v then %v at cb=%d", prev, d, cb)
		}
		prev = d
	}
}

func TestInputDensityMonotonicityWithDAC(t *testing.T) {
	r := xrand.New(8)
	xs := make([]float32, 4096)
	for i := range xs {
		if r.Bernoulli(0.5) {
			xs[i] = float32(math.Abs(r.NormFloat64()))
		}
	}
	var prev float64 = -1
	for _, dac := range []int{1, 2, 4, 8, 16} {
		p := Params{WBits: 16, ABits: 16, CellBits: 2, DACBits: dac}
		d := InputDensity(xs, p)
		if d < prev {
			t.Fatalf("input density decreased at DAC=%d: %v < %v", dac, d, prev)
		}
		prev = d
	}
	// All-zero input → zero density; empty input → 0.
	if InputDensity([]float32{0, 0}, Default()) != 0 || InputDensity(nil, Default()) != 0 {
		t.Fatal("degenerate input densities wrong")
	}
}

func TestInputDensityBounds(t *testing.T) {
	// Exactly one non-zero input with value == max ⇒ its slices are all
	// ones ⇒ density = 1/len for single-slice DAC=16.
	p := Params{WBits: 16, ABits: 16, CellBits: 2, DACBits: 16}
	d := InputDensity([]float32{5, 0, 0, 0}, p)
	if math.Abs(d-0.25) > 1e-12 {
		t.Fatalf("density = %v, want 0.25", d)
	}
}
