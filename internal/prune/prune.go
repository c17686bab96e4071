// Package prune produces the weight zero-structures the paper's
// experiments depend on.
//
// The paper evaluates networks trained with SSL (structured sparsity
// learning [45]) and, for Fig. 23, with SkimCaffe's GSL (unstructured,
// per-layer-tuned). We cannot rerun Caffe training, but every measured
// quantity depends only on where the zeros are (DESIGN.md §2), so this
// package synthesizes those structures directly:
//
//   - SSL zeroes whole *weight-matrix rows* — the same filter pixel
//     (ci, ky, kx) across every filter of the layer — plus whole filters
//     (matrix columns), plus residual element-wise zeros. Row-structured
//     zeros are exactly what ReCom/naive/ORC row compression can exploit.
//   - GSL zeroes elements independently (magnitude-style), with per-layer
//     rates; element zeros only align into removable OU rows by chance.
//
// Magnitude pruning of genuinely trained weights is also provided for the
// small networks the repo really trains.
package prune

import (
	"fmt"
	"math"
	"sort"

	"sre/internal/tensor"
	"sre/internal/xrand"
)

// Spec describes a synthetic zero structure for one layer.
//
// SSL produces zeros at several granularities at once: whole
// weight-matrix rows (the same filter pixel across every filter), whole
// filters (columns), row *segments* — a filter pixel zeroed across a
// contiguous group of SegCols filters but not all of them — and leftover
// element-wise zeros. Row segments are the structure that OU-row
// compression exploits but whole-matrix-row schemes (ReCom) cannot.
type Spec struct {
	RowFrac  float64 // fraction of weight-matrix rows zeroed entirely
	ColFrac  float64 // fraction of columns (filters / FC outputs) zeroed entirely
	SegFrac  float64 // probability a (SegRows-row, SegCols-column block) is zeroed
	SegCols  int     // segment width in logical columns (default 16)
	SegRows  int     // segment height in rows (default 1; K·K groups whole channels)
	ElemFrac float64 // independent zero probability among remaining elements
}

// segCols returns the effective segment width.
func (s Spec) segCols() int {
	if s.SegCols <= 0 {
		return 16
	}
	return s.SegCols
}

// segRows returns the effective segment height.
func (s Spec) segRows() int {
	if s.SegRows <= 0 {
		return 1
	}
	return s.SegRows
}

// Validate checks all fractions are probabilities (NaN is not).
func (s Spec) Validate() error {
	for _, f := range []float64{s.RowFrac, s.ColFrac, s.SegFrac, s.ElemFrac} {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("prune: fraction %v outside [0,1]", f)
		}
	}
	return nil
}

// TotalSparsity returns the expected overall zero fraction produced by
// the spec (assuming no pre-existing zeros).
func (s Spec) TotalSparsity() float64 {
	keep := (1 - s.RowFrac) * (1 - s.ColFrac) * (1 - s.SegFrac) * (1 - s.ElemFrac)
	return 1 - keep
}

// ElemFracFor returns the element-wise rate needed to reach the target
// total sparsity given the structured fractions. It returns 0 if the
// structured zeros alone already exceed the target.
func ElemFracFor(target float64, structured ...float64) float64 {
	keep := 1.0
	for _, f := range structured {
		keep *= 1 - f
	}
	if keep <= 0 {
		return 0
	}
	e := 1 - (1-target)/keep
	if e < 0 {
		return 0
	}
	if e > 1 {
		return 1
	}
	return e
}

// ApplyMatrix zeroes a rank-2 [R, C] weight matrix in place per spec:
// every element its Rows replay marks.
func ApplyMatrix(w *tensor.Tensor, spec Spec, rng *xrand.RNG) {
	r, c := w.Dim(0), w.Dim(1)
	rows := NewRows(r, c, spec, rng)
	zero := make([]bool, c)
	d := w.Data()
	for i := 0; i < r; i++ {
		clear(zero)
		rows.Next(zero)
		for j, z := range zero {
			if z {
				d[i*c+j] = 0
			}
		}
	}
}

// Rows replays one prune pass's draws over an r×c matrix, a row at a
// time: the row and column sets up front, one segment decision per
// (row block, column segment) as each row block starts, and one
// element draw per element that no zero row, column or segment of the
// pass already covers. The draws depend only on the spec, the dims and
// the stream, never on the values being pruned, so a builder learns
// where a pass's zeros fall before it synthesizes any weight.
type Rows struct {
	spec               Spec
	zeroRows, zeroCols []bool
	segZero            []bool
	sc, sRows          int
	er, sr             xrand.RNG
	i                  int
}

// NewRows starts the replay of spec's pass over an r×c matrix, drawing
// from rng's "rows", "cols", "segs" and "elems" streams. It panics on
// an invalid spec.
func NewRows(r, c int, spec Spec, rng *xrand.RNG) *Rows {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	sc := spec.segCols()
	return &Rows{
		spec:     spec,
		zeroRows: pickSet(rng.Split("rows"), r, spec.RowFrac),
		zeroCols: pickSet(rng.Split("cols"), c, spec.ColFrac),
		segZero:  make([]bool, (c+sc-1)/sc),
		sc:       sc,
		sRows:    spec.segRows(),
		er:       *rng.Split("elems"),
		sr:       *rng.Split("segs"),
	}
}

// Next sets zero[j] for every element of the next row that the pass
// zeroes and leaves the other entries as they are, so passes compose
// when each one's Next marks the same slice; len(zero) must be the
// matrix's column count.
func (p *Rows) Next(zero []bool) {
	i := p.i
	p.i++
	if i%p.sRows == 0 { // one decision per (row block, column segment)
		for s := range p.segZero {
			p.segZero[s] = p.spec.SegFrac > 0 && p.sr.Bernoulli(p.spec.SegFrac)
		}
	}
	if p.zeroRows[i] {
		for j := range zero {
			zero[j] = true
		}
		return
	}
	// x>>11 < cut is er.Bernoulli(frac) for the draw x when 0 < frac <
	// 1: Bernoulli tests (x>>11)·2⁻⁵³ < frac, and scaling by 2⁵³ is
	// exact, so for an integer it is x>>11 < ⌈frac·2⁵³⌉.
	frac, er := p.spec.ElemFrac, p.er
	cut := uint64(math.Ceil(frac * (1 << 53)))
	for s, segZero := range p.segZero {
		lo := s * p.sc
		seg, cols := zero[lo:min(lo+p.sc, len(zero))], p.zeroCols[lo:]
		for j := range seg {
			if segZero || cols[j] {
				seg[j] = true
				continue
			}
			// The elems stream serves this pass alone, so the draws of a
			// fraction of 0 or 1, whose outcome is fixed, can be skipped.
			switch {
			case frac <= 0:
			case frac >= 1:
				seg[j] = true
			default:
				var x uint64
				er, x = xrand.Next(er)
				if x>>11 < cut {
					seg[j] = true
				}
			}
		}
	}
	p.er = er
}

// pickSet returns a boolean membership vector with round(frac·n) members.
func pickSet(rng *xrand.RNG, n int, frac float64) []bool {
	k := int(frac*float64(n) + 0.5)
	if k > n {
		k = n
	}
	set := make([]bool, n)
	for _, i := range rng.SampleK(k, n) {
		set[i] = true
	}
	return set
}

// Magnitude zeroes the smallest-magnitude elements of w until the target
// sparsity is reached (counting pre-existing zeros toward the target).
func Magnitude(w []float32, target float64) {
	if target <= 0 {
		return
	}
	n := len(w)
	want := int(target*float64(n) + 0.5)
	zeros := 0
	for _, v := range w {
		if v == 0 {
			zeros++
		}
	}
	need := want - zeros
	if need <= 0 {
		return
	}
	type mag struct {
		i int
		a float32
	}
	nonzero := make([]mag, 0, n-zeros)
	for i, v := range w {
		if v != 0 {
			a := v
			if a < 0 {
				a = -a
			}
			nonzero = append(nonzero, mag{i, a})
		}
	}
	sort.Slice(nonzero, func(a, b int) bool { return nonzero[a].a < nonzero[b].a })
	if need > len(nonzero) {
		need = len(nonzero)
	}
	for _, m := range nonzero[:need] {
		w[m.i] = 0
	}
}

// SliceSparsify clamps weight magnitudes in place so that, quantized
// with a single per-tensor scale at wbits precision and decomposed into
// cellBits-wide cells, every clamped code fits in the maxSlices
// least-significant weight bit slices — the high slices become all-zero
// and the WSS scheme elides their OU groups entirely. The elements at
// the tensor's maximum magnitude are left untouched: they anchor the
// per-tensor quantization scale (which maps the max to the top code),
// without which clamping would simply rescale every code back to full
// range. Signs are preserved. maxSlices outside (0, wbits/cellBits)
// leaves w unchanged. The parameters are plain ints so the package
// stays independent of internal/quant.
func SliceSparsify(w []float32, maxSlices, wbits, cellBits int) {
	if cellBits <= 0 || maxSlices <= 0 || maxSlices >= wbits/cellBits || len(w) == 0 {
		return
	}
	var maxAbs float32
	for _, v := range w {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return
	}
	topCode := float64(uint64(1)<<uint(wbits) - 1)
	capCode := float64(uint64(1)<<uint(maxSlices*cellBits) - 1)
	clampAt := float32(float64(maxAbs) * capCode / topCode)
	for i, v := range w {
		a := v
		if a < 0 {
			a = -a
		}
		if a == maxAbs {
			continue // scale anchor
		}
		if a > clampAt {
			if v < 0 {
				w[i] = -clampAt
			} else {
				w[i] = clampAt
			}
		}
	}
}

// MatrixRowSparsity returns the fraction of fully-zero rows in a rank-2
// matrix — the structure SSL creates and row compression exploits.
func MatrixRowSparsity(w *tensor.Tensor) float64 {
	r, c := w.Dim(0), w.Dim(1)
	zero := 0
	d := w.Data()
outer:
	for i := 0; i < r; i++ {
		for _, v := range d[i*c : (i+1)*c] {
			if v != 0 {
				continue outer
			}
		}
		zero++
	}
	return float64(zero) / float64(r)
}
