// Package quant implements fixed-point quantization and the bit-level
// decomposition that maps quantized values onto ReRAM hardware.
//
// In a practical ReRAM accelerator (paper §2.1, Fig. 3):
//
//   - a weight quantized to WBits is split into WBits/CellBits groups and
//     each group is stored in one cell, so one logical weight column spans
//     WBits/CellBits physical bitlines (LSB group on the first bitline);
//   - an activation quantized to ABits is split into ABits/DACBits slices
//     that are fed to the wordline driver over successive groups of
//     cycles (LSB slice first).
//
// Decomposition is where *bit-level sparsity* (paper §2.2, Fig. 4) comes
// from: a small non-zero weight still has all-zero high cells, and a small
// activation has all-zero high slices. Both are exposed here as density
// measurements consumed by the Fig. 4 experiment.
package quant

import (
	"errors"
	"fmt"
	"math"

	"sre/internal/tensor"
)

// Params describes a fixed-point format and its hardware decomposition.
type Params struct {
	WBits    int // weight magnitude precision in bits (paper: 16)
	ABits    int // activation magnitude precision in bits (paper: 16)
	CellBits int // bits stored per ReRAM cell (paper default: 2)
	DACBits  int // wordline-driver resolution in bits (paper: 1)
}

// Default returns the paper's Table 1 configuration: 16-bit values, 2-bit
// cells, 1-bit DACs.
func Default() Params { return Params{WBits: 16, ABits: 16, CellBits: 2, DACBits: 1} }

// ErrCodeWidth reports a WBits or ABits above 32, which a uint32 code
// cannot hold (its top bits, and the slices that would carry them,
// could never be set).
var ErrCodeWidth = errors.New("quant: code width above 32 bits")

// Validate checks the code widths fit a uint32 and the decomposition
// divides evenly.
func (p Params) Validate() error {
	switch {
	case p.WBits <= 0 || p.ABits <= 0 || p.CellBits <= 0 || p.DACBits <= 0:
		return fmt.Errorf("quant: non-positive field in %+v", p)
	case p.WBits > 32 || p.ABits > 32:
		return fmt.Errorf("%w: WBits %d, ABits %d", ErrCodeWidth, p.WBits, p.ABits)
	case p.WBits%p.CellBits != 0:
		return fmt.Errorf("quant: WBits %d not divisible by CellBits %d", p.WBits, p.CellBits)
	case p.ABits%p.DACBits != 0:
		return fmt.Errorf("quant: ABits %d not divisible by DACBits %d", p.ABits, p.DACBits)
	case p.CellBits > 16 || p.DACBits > 16:
		return fmt.Errorf("quant: unreasonable cell/DAC width in %+v", p)
	}
	return nil
}

// CellsPerWeight returns how many bitlines one logical weight occupies.
func (p Params) CellsPerWeight() int { return p.WBits / p.CellBits }

// SlicesPerInput returns how many sequential bit slices one activation
// needs.
func (p Params) SlicesPerInput() int { return p.ABits / p.DACBits }

// SlicesPerWeight returns how many bit slices one weight decomposes
// into — numerically CellsPerWeight, but named for the slice-major
// (WSS) view where same-significance cells of neighbouring weights are
// grouped rather than the cells of one weight.
func (p Params) SlicesPerWeight() int { return p.WBits / p.CellBits }

// QuantizeUnsigned maps |x| into [0, 2^bits−1] with the given scale
// (values-per-LSB). Values are clamped at the top code.
func QuantizeUnsigned(x float64, bits int, scale float64) uint32 {
	if x <= 0 || scale <= 0 {
		return 0
	}
	q := int64(math.Round(x / scale))
	max := int64(1)<<uint(bits) - 1
	if q > max {
		q = max
	}
	return uint32(q)
}

// ScaleFor returns the quantization scale that maps maxAbs to the top
// code of a bits-wide unsigned format. A zero maxAbs yields scale 1 so
// that all-zero tensors quantize to all-zero codes.
func ScaleFor(maxAbs float64, bits int) float64 {
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / float64(uint64(1)<<uint(bits)-1)
}

// DecomposeCells splits the magnitude code q into WBits/CellBits cell
// values, least-significant group first. dst may be nil.
func (p Params) DecomposeCells(q uint32, dst []uint16) []uint16 {
	n := p.CellsPerWeight()
	if dst == nil {
		dst = make([]uint16, n)
	}
	mask := uint32(1)<<uint(p.CellBits) - 1
	for i := 0; i < n; i++ {
		dst[i] = uint16(q >> uint(i*p.CellBits) & mask)
	}
	return dst
}

// DecomposeSlices splits the activation code q into ABits/DACBits driver
// slices, least-significant first. dst may be nil.
func (p Params) DecomposeSlices(q uint32, dst []uint16) []uint16 {
	n := p.SlicesPerInput()
	if dst == nil {
		dst = make([]uint16, n)
	}
	mask := uint32(1)<<uint(p.DACBits) - 1
	for i := 0; i < n; i++ {
		dst[i] = uint16(q >> uint(i*p.DACBits) & mask)
	}
	return dst
}

// DecomposeWeightSlices splits the weight magnitude code q into
// WBits/CellBits bit slices, least-significant first — the weight-side
// mirror of DecomposeSlices. The values equal DecomposeCells; the
// distinction is interpretive: slice j of every weight in an OU column
// group lands in the same physical group under the WSS slice-major
// mapping, so an all-zero slice j across a group elides that group
// entirely. dst may be nil.
func (p Params) DecomposeWeightSlices(q uint32, dst []uint16) []uint16 {
	n := p.SlicesPerWeight()
	if dst == nil {
		dst = make([]uint16, n)
	}
	mask := uint32(1)<<uint(p.CellBits) - 1
	for i := 0; i < n; i++ {
		dst[i] = uint16(q >> uint(i*p.CellBits) & mask)
	}
	return dst
}

// WeightSliceDensities returns, per weight bit slice (LSB first), the
// fraction of non-zero slice values across all the matrix's weights —
// the per-slice refinement of CellMatrix.Density and the statistic that
// motivates WSS: magnitude-skewed weights leave high-order slices
// almost entirely zero.
func (m *Matrix) WeightSliceDensities() []float64 {
	spw := m.P.SlicesPerWeight()
	counts := make([]int, spw)
	buf := make([]uint16, spw)
	for _, q := range m.Q {
		m.P.DecomposeWeightSlices(q, buf)
		for j, s := range buf {
			if s != 0 {
				counts[j]++
			}
		}
	}
	out := make([]float64, spw)
	if len(m.Q) == 0 {
		return out
	}
	for j, n := range counts {
		out[j] = float64(n) / float64(len(m.Q))
	}
	return out
}

// ComposeCells reassembles a magnitude code from its cell values
// (inverse of DecomposeCells).
func (p Params) ComposeCells(cells []uint16) uint32 {
	var q uint32
	for i, c := range cells {
		q |= uint32(c) << uint(i*p.CellBits)
	}
	return q
}

// ComposeSlices reassembles an activation code from its slices.
func (p Params) ComposeSlices(slices []uint16) uint32 {
	var q uint32
	for i, s := range slices {
		q |= uint32(s) << uint(i*p.DACBits)
	}
	return q
}

// Matrix is a quantized weight matrix in crossbar orientation: Rows×Cols
// magnitude codes with separate signs. Q[r][c] is the magnitude code of
// logical weight (r, c); Neg[r][c] reports a negative weight. The paper's
// evaluation is sign-agnostic (zeros are what matter), but the functional
// crossbar model uses signs to verify numeric equivalence with the
// reference convolution.
type Matrix struct {
	Rows, Cols int
	Q          []uint32
	Neg        []bool
	Scale      float64
	P          Params
}

// QuantizeMatrix quantizes a rank-2 float tensor (crossbar orientation
// [R, C]) into a Matrix using a single per-tensor scale.
func QuantizeMatrix(w *tensor.Tensor, p Params) *Matrix {
	if len(w.Shape()) != 2 {
		panic("quant: QuantizeMatrix wants rank-2 tensor")
	}
	r, c := w.Dim(0), w.Dim(1)
	scale := ScaleFor(float64(w.MaxAbs()), p.WBits)
	m := &Matrix{Rows: r, Cols: c, Q: make([]uint32, r*c), Neg: make([]bool, r*c), Scale: scale, P: p}
	for i, v := range w.Data() {
		m.Q[i] = QuantizeUnsigned(math.Abs(float64(v)), p.WBits, scale)
		m.Neg[i] = v < 0
	}
	return m
}

// At returns the magnitude code at (r, c).
func (m *Matrix) At(r, c int) uint32 { return m.Q[r*m.Cols+c] }

// Dequantize returns the signed float value at (r, c).
func (m *Matrix) Dequantize(r, c int) float64 {
	v := float64(m.At(r, c)) * m.Scale
	if m.Neg[r*m.Cols+c] {
		return -v
	}
	return v
}

// CellMatrix is the physical view after decomposition: Rows ×
// (Cols·CellsPerWeight) cell values. Physical column c·CPW+i holds bit
// group i (LSB-first) of logical column c.
type CellMatrix struct {
	Rows, PhysCols int
	CellsPerWeight int
	CellBits       int
	Cells          []uint16
}

// Decompose expands a quantized Matrix into its CellMatrix.
func (m *Matrix) Decompose() *CellMatrix {
	cpw := m.P.CellsPerWeight()
	cm := &CellMatrix{
		Rows:           m.Rows,
		PhysCols:       m.Cols * cpw,
		CellsPerWeight: cpw,
		CellBits:       m.P.CellBits,
		Cells:          make([]uint16, m.Rows*m.Cols*cpw),
	}
	buf := make([]uint16, cpw)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			m.P.DecomposeCells(m.At(r, c), buf)
			base := r*cm.PhysCols + c*cpw
			copy(cm.Cells[base:base+cpw], buf)
		}
	}
	return cm
}

// Cell returns the cell value at physical position (r, pc).
func (cm *CellMatrix) Cell(r, pc int) uint16 { return cm.Cells[r*cm.PhysCols+pc] }

// Density returns the fraction of non-zero cells — the quantity plotted
// in Fig. 4(a).
func (cm *CellMatrix) Density() float64 {
	nz := 0
	for _, c := range cm.Cells {
		if c != 0 {
			nz++
		}
	}
	if len(cm.Cells) == 0 {
		return 0
	}
	return float64(nz) / float64(len(cm.Cells))
}

// InputDensity quantizes the activations xs with the given params and
// returns the fraction of non-zero decomposed driver slices — Fig. 4(b).
func InputDensity(xs []float32, p Params) float64 {
	if len(xs) == 0 {
		return 0
	}
	var maxAbs float64
	for _, x := range xs {
		if a := math.Abs(float64(x)); a > maxAbs {
			maxAbs = a
		}
	}
	scale := ScaleFor(maxAbs, p.ABits)
	spi := p.SlicesPerInput()
	buf := make([]uint16, spi)
	nz, total := 0, 0
	for _, x := range xs {
		q := QuantizeUnsigned(math.Abs(float64(x)), p.ABits, scale)
		p.DecomposeSlices(q, buf)
		for _, s := range buf {
			if s != 0 {
				nz++
			}
		}
		total += spi
	}
	return float64(nz) / float64(total)
}
