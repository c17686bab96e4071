// Package nn implements the neural-network substrate of the reproduction:
// the layer types appearing in the paper's Table 2 topologies (Conv2D,
// fully-connected, max/average pooling, ReLU, batch-norm, GoogLeNet
// inception modules and ResNet bottleneck blocks), shape inference, a
// forward evaluator that can record the inputs reaching every
// matrix-multiplying layer (what the crossbars consume), and a parser for
// the compact topology strings used by Table 2
// ("conv5x20-pool-conv5x50-pool-500-10").
//
// Feature maps are CHW tensors; conv weights are [Cout, Cin, K, K]; FC
// weights are [In, Out]. The crossbar-facing weight matrix of a conv
// layer has R = Cin·K·K rows in (c, ky, kx) order — the same order
// tensor.Im2ColWindow produces — and Cout columns.
package nn

import (
	"fmt"

	"sre/internal/tensor"
)

// Shape is a tensor shape; CHW for spatial tensors, [N] for vectors.
type Shape []int

// Elems returns the number of elements in the shape.
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Layer is a forward-computable network stage.
type Layer interface {
	// Name returns a short human-readable identifier ("conv3x64").
	Name() string
	// OutShape computes the output shape for a given input shape.
	OutShape(in Shape) Shape
	// Forward evaluates the layer. If tr is non-nil, matrix layers record
	// the activation tensor they consumed.
	Forward(x *tensor.Tensor, tr *Trace) *tensor.Tensor
}

// MatrixLayer is a layer that performs a weight-matrix computation and is
// therefore mapped onto ReRAM crossbars.
type MatrixLayer interface {
	Layer
	// WeightMatrix returns the weights in crossbar orientation [R, C].
	// The returned tensor aliases the layer's weights.
	WeightMatrix() *tensor.Tensor
	// Windows returns the number of input sliding windows the layer
	// processes for input shape in (1 for FC layers).
	Windows(in Shape) int
}

// Trace records, in execution order, every matrix layer together with the
// activation tensor that reached it. The simulator replays these pairs on
// the crossbar model.
type Trace struct {
	Layers []MatrixLayer
	Inputs []*tensor.Tensor
	Paths  []string
	prefix string
}

func (tr *Trace) record(l MatrixLayer, x *tensor.Tensor) {
	if tr == nil {
		return
	}
	tr.Layers = append(tr.Layers, l)
	tr.Inputs = append(tr.Inputs, x)
	tr.Paths = append(tr.Paths, tr.prefix+l.Name())
}

// Conv is a 2-D convolution layer.
type Conv struct {
	Cin, Cout, K, Stride, Pad int
	// W is [Cout, Cin, K, K]; B is [Cout] (may be nil for no bias).
	W *tensor.Tensor
	B []float32

	// scratch for Forward
	winBuf []float32
}

// NewConv allocates a conv layer with zero weights.
func NewConv(cin, cout, k, stride, pad int) *Conv {
	c := conv(cin, cout, k, stride, pad)
	allocWeights(c)
	return c
}

// conv is NewConv without weights.
func conv(cin, cout, k, stride, pad int) *Conv {
	return &Conv{Cin: cin, Cout: cout, K: k, Stride: stride, Pad: pad}
}

func (c *Conv) Name() string {
	s := fmt.Sprintf("conv%dx%d", c.K, c.Cout)
	if c.Stride != 1 {
		s += fmt.Sprintf("s%d", c.Stride)
	}
	if c.Pad != 0 {
		s += fmt.Sprintf("p%d", c.Pad)
	}
	return s
}

func (c *Conv) OutShape(in Shape) Shape {
	if len(in) != 3 || in[0] != c.Cin {
		panic(fmt.Sprintf("nn: %s got input shape %v, want [%d H W]", c.Name(), in, c.Cin))
	}
	return Shape{c.Cout,
		tensor.ConvOutputDim(in[1], c.K, c.Stride, c.Pad),
		tensor.ConvOutputDim(in[2], c.K, c.Stride, c.Pad)}
}

// WeightMatrix returns a [Cin·K·K, Cout] view. Row r = ci·K·K + ky·K + kx.
// The view copies (orientation differs from storage); callers mutate
// weights through W, not through this matrix.
func (c *Conv) WeightMatrix() *tensor.Tensor {
	rows := c.Cin * c.K * c.K
	m := tensor.New(rows, c.Cout)
	for co := 0; co < c.Cout; co++ {
		for ci := 0; ci < c.Cin; ci++ {
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					r := ci*c.K*c.K + ky*c.K + kx
					m.Set(c.W.At(co, ci, ky, kx), r, co)
				}
			}
		}
	}
	return m
}

func (c *Conv) Windows(in Shape) int {
	out := c.OutShape(in)
	return out[1] * out[2]
}

func (c *Conv) Forward(x *tensor.Tensor, tr *Trace) *tensor.Tensor {
	tr.record(c, x)
	out := c.OutShape(Shape(x.Shape()))
	hout, wout := out[1], out[2]
	y := tensor.New(out...)
	h, w := x.Dim(1), x.Dim(2)
	yd := y.Data()
	xd := x.Data()
	kk := c.K * c.K
	for co := 0; co < c.Cout; co++ {
		wBase := co * c.Cin * kk
		wData := c.W.Data()[wBase : wBase+c.Cin*kk]
		bias := float32(0)
		if c.B != nil {
			bias = c.B[co]
		}
		plane := yd[co*hout*wout : (co+1)*hout*wout]
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				acc := bias
				baseY := oy*c.Stride - c.Pad
				baseX := ox*c.Stride - c.Pad
				for ci := 0; ci < c.Cin; ci++ {
					xPlane := xd[ci*h*w : (ci+1)*h*w]
					wPlane := wData[ci*kk : (ci+1)*kk]
					for ky := 0; ky < c.K; ky++ {
						iy := baseY + ky
						if iy < 0 || iy >= h {
							continue
						}
						rowOff := iy * w
						for kx := 0; kx < c.K; kx++ {
							ix := baseX + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += xPlane[rowOff+ix] * wPlane[ky*c.K+kx]
						}
					}
				}
				plane[oy*wout+ox] = acc
			}
		}
	}
	return y
}

// FC is a fully-connected layer. Inputs of any shape are flattened.
type FC struct {
	In, Out int
	// W is [In, Out]; B is [Out].
	W *tensor.Tensor
	B []float32
}

// NewFC allocates an FC layer with zero weights.
func NewFC(in, out int) *FC {
	f := &FC{In: in, Out: out}
	allocWeights(f)
	return f
}

// allocWeights gives every matrix layer in l zero weights and biases.
// The parser builds layers without them, so that Shapes can walk a
// topology without allocating a weight; Parse and the New constructors
// allocate them here.
func allocWeights(l Layer) {
	for _, m := range matrixLayers(l) {
		switch v := m.(type) {
		case *Conv:
			v.W, v.B = tensor.New(v.Cout, v.Cin, v.K, v.K), make([]float32, v.Cout)
		case *FC:
			v.W, v.B = tensor.New(v.In, v.Out), make([]float32, v.Out)
		}
	}
}

// matrixLayers returns the matrix layers inside l.
func matrixLayers(l Layer) []MatrixLayer {
	var convs []*Conv
	switch v := l.(type) {
	case MatrixLayer:
		return []MatrixLayer{v}
	case *GroupedConv:
		convs = v.Convs
	case *Inception:
		convs = v.Convs()
	case *Residual:
		convs = v.Convs()
	}
	out := make([]MatrixLayer, len(convs))
	for i, c := range convs {
		out[i] = c
	}
	return out
}

func (f *FC) Name() string { return fmt.Sprintf("fc%d", f.Out) }

func (f *FC) OutShape(in Shape) Shape {
	if in.Elems() != f.In {
		panic(fmt.Sprintf("nn: %s got %d inputs, want %d", f.Name(), in.Elems(), f.In))
	}
	return Shape{f.Out}
}

// WeightMatrix returns the [In, Out] weights (aliased, not copied).
func (f *FC) WeightMatrix() *tensor.Tensor { return f.W }

func (f *FC) Windows(Shape) int { return 1 }

func (f *FC) Forward(x *tensor.Tensor, tr *Trace) *tensor.Tensor {
	tr.record(f, x) // record pre-flatten so traced shapes match enumeration
	flat := x.Reshape(x.Size())
	y := tensor.FromSlice(tensor.MatVec(f.W, flat.Data()), f.Out)
	if f.B != nil {
		for i := range f.B {
			y.Data()[i] += f.B[i]
		}
	}
	return y
}

// ReLU clamps negatives to zero — the source of activation sparsity
// (paper §2.2).
type ReLU struct{}

func (ReLU) Name() string            { return "relu" }
func (ReLU) OutShape(in Shape) Shape { return in }
func (ReLU) Forward(x *tensor.Tensor, _ *Trace) *tensor.Tensor {
	y := x.Clone()
	d := y.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return y
}

// MaxPool is a 2-D max pooling layer with optional zero padding (needed
// by inception pool branches, which use 3×3/s1/p1 pooling).
type MaxPool struct {
	K, Stride, Pad int
}

func (p *MaxPool) Name() string {
	if p.K == 2 && p.Stride == 2 && p.Pad == 0 {
		return "pool"
	}
	s := fmt.Sprintf("pool%ds%d", p.K, p.Stride)
	if p.Pad != 0 {
		s += fmt.Sprintf("p%d", p.Pad)
	}
	return s
}

func (p *MaxPool) OutShape(in Shape) Shape {
	return Shape{in[0],
		poolOut(in[1]+2*p.Pad, p.K, p.Stride),
		poolOut(in[2]+2*p.Pad, p.K, p.Stride)}
}

// poolOut uses ceil semantics (Caffe-style) so odd sizes pool cleanly.
func poolOut(h, k, s int) int {
	o := (h-k+s-1)/s + 1
	if o < 1 {
		o = 1
	}
	return o
}

func (p *MaxPool) Forward(x *tensor.Tensor, _ *Trace) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := p.OutShape(Shape(x.Shape()))
	ho, wo := out[1], out[2]
	y := tensor.New(c, ho, wo)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				best := float32(0)
				first := true
				for ky := 0; ky < p.K; ky++ {
					iy := oy*p.Stride + ky - p.Pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.K; kx++ {
						ix := ox*p.Stride + kx - p.Pad
						if ix < 0 || ix >= w {
							continue
						}
						v := x.At(ci, iy, ix)
						if first || v > best {
							best, first = v, false
						}
					}
				}
				y.Set(best, ci, oy, ox)
			}
		}
	}
	return y
}

// AvgPool is global average pooling when K == 0, else K×K/Stride pooling.
type AvgPool struct {
	K, Stride int
}

func (p *AvgPool) Name() string {
	if p.K == 0 {
		return "gap"
	}
	return fmt.Sprintf("avgpool%ds%d", p.K, p.Stride)
}

func (p *AvgPool) OutShape(in Shape) Shape {
	if p.K == 0 {
		return Shape{in[0], 1, 1}
	}
	return Shape{in[0], poolOut(in[1], p.K, p.Stride), poolOut(in[2], p.K, p.Stride)}
}

func (p *AvgPool) Forward(x *tensor.Tensor, _ *Trace) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	k, s := p.K, p.Stride
	if k == 0 {
		k, s = h, h
	}
	ho, wo := poolOut(h, k, s), poolOut(w, k, s)
	y := tensor.New(c, ho, wo)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				var sum float32
				n := 0
				for ky := 0; ky < k; ky++ {
					iy := oy*s + ky
					if iy >= h {
						break
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*s + kx
						if ix >= w {
							break
						}
						sum += x.At(ci, iy, ix)
						n++
					}
				}
				y.Set(sum/float32(n), ci, oy, ox)
			}
		}
	}
	return y
}

// BatchNorm applies per-channel scale and shift (inference form). The
// paper notes ResNet-50's many batch-norm layers boost DOF gains by
// re-sparsifying activations after ReLU; we model the inference transform.
type BatchNorm struct {
	C            int
	Scale, Shift []float32
}

// NewBatchNorm returns an identity batch-norm over c channels.
func NewBatchNorm(c int) *BatchNorm {
	b := &BatchNorm{C: c, Scale: make([]float32, c), Shift: make([]float32, c)}
	for i := range b.Scale {
		b.Scale[i] = 1
	}
	return b
}

func (b *BatchNorm) Name() string            { return "bn" }
func (b *BatchNorm) OutShape(in Shape) Shape { return in }

func (b *BatchNorm) Forward(x *tensor.Tensor, _ *Trace) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	if c != b.C {
		panic(fmt.Sprintf("nn: bn over %d channels got %d", b.C, c))
	}
	y := x.Clone()
	d := y.Data()
	for ci := 0; ci < c; ci++ {
		sc, sh := b.Scale[ci], b.Shift[ci]
		plane := d[ci*h*w : (ci+1)*h*w]
		for i := range plane {
			plane[i] = plane[i]*sc + sh
		}
	}
	return y
}
