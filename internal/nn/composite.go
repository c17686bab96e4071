package nn

import (
	"fmt"

	"sre/internal/tensor"
)

// concatChannels stacks CHW tensors with identical spatial dims along the
// channel axis.
func concatChannels(xs ...*tensor.Tensor) *tensor.Tensor {
	h, w := xs[0].Dim(1), xs[0].Dim(2)
	c := 0
	for _, x := range xs {
		if x.Dim(1) != h || x.Dim(2) != w {
			panic("nn: concatChannels spatial mismatch")
		}
		c += x.Dim(0)
	}
	y := tensor.New(c, h, w)
	off := 0
	for _, x := range xs {
		copy(y.Data()[off:], x.Data())
		off += x.Size()
	}
	return y
}

// Inception is a GoogLeNet-v1 inception module: four parallel branches
// (1×1; 1×1→3×3; 1×1→5×5; 3×3 pool→1×1) whose outputs concatenate along
// channels. Every conv is followed by ReLU.
type Inception struct {
	Tag                      string // e.g. "3a"
	B1                       *Conv  // 1×1
	B2Reduce, B2             *Conv  // 1×1 reduce, 3×3 pad 1
	B3Reduce, B3             *Conv  // 1×1 reduce, 5×5 pad 2
	PoolProj                 *Conv  // 1×1 after pooling
	pool                     *MaxPool
	n1, n3r, n3, n5r, n5, np int
}

// NewInception builds an inception module over cin input channels with
// the standard six filter counts.
func NewInception(tag string, cin, n1, n3r, n3, n5r, n5, np int) *Inception {
	m := inception(tag, cin, n1, n3r, n3, n5r, n5, np)
	allocWeights(m)
	return m
}

// inception is NewInception without weights.
func inception(tag string, cin, n1, n3r, n3, n5r, n5, np int) *Inception {
	return &Inception{
		Tag:      tag,
		B1:       conv(cin, n1, 1, 1, 0),
		B2Reduce: conv(cin, n3r, 1, 1, 0),
		B2:       conv(n3r, n3, 3, 1, 1),
		B3Reduce: conv(cin, n5r, 1, 1, 0),
		B3:       conv(n5r, n5, 5, 1, 2),
		PoolProj: conv(cin, np, 1, 1, 0),
		pool:     &MaxPool{K: 3, Stride: 1, Pad: 1},
		n1:       n1, n3r: n3r, n3: n3, n5r: n5r, n5: n5, np: np,
	}
}

func (m *Inception) Name() string { return "inception(" + m.Tag + ")" }

func (m *Inception) OutShape(in Shape) Shape {
	return Shape{m.n1 + m.n3 + m.n5 + m.np, in[1], in[2]}
}

// Convs returns the module's six conv layers in a fixed order.
func (m *Inception) Convs() []*Conv {
	return []*Conv{m.B1, m.B2Reduce, m.B2, m.B3Reduce, m.B3, m.PoolProj}
}

func (m *Inception) Forward(x *tensor.Tensor, tr *Trace) *tensor.Tensor {
	relu := ReLU{}
	save := ""
	if tr != nil {
		save = tr.prefix
		tr.prefix = save + m.Name() + "/"
		defer func() { tr.prefix = save }()
	}
	b1 := relu.Forward(m.B1.Forward(x, tr), nil)
	b2 := relu.Forward(m.B2.Forward(relu.Forward(m.B2Reduce.Forward(x, tr), nil), tr), nil)
	b3 := relu.Forward(m.B3.Forward(relu.Forward(m.B3Reduce.Forward(x, tr), nil), tr), nil)
	b4 := relu.Forward(m.PoolProj.Forward(m.pool.Forward(x, nil), tr), nil)
	return concatChannels(b1, b2, b3, b4)
}

// Residual is a ResNet bottleneck block: 1×1 → 3×3 (stride s) → 1×1 convs
// with batch-norm and ReLU, plus an identity or 1×1-projection shortcut.
// The trailing batch-norm layers are what re-sparsify ResNet-50's
// activations (paper §7.1's explanation of its large DOF gain).
type Residual struct {
	C1, C2, C3    *Conv
	BN1, BN2, BN3 *BatchNorm
	Proj          *Conv // nil for identity shortcut
	ProjBN        *BatchNorm
}

// NewResidual builds a bottleneck over cin channels with the given inner
// width (planes), output width cout, and stride on the 3×3 conv. A
// projection shortcut is added when cin != cout or stride != 1.
func NewResidual(cin, planes, cout, stride int) *Residual {
	r := residual(cin, planes, cout, stride)
	allocWeights(r)
	return r
}

// residual is NewResidual without conv weights.
func residual(cin, planes, cout, stride int) *Residual {
	r := &Residual{
		C1:  conv(cin, planes, 1, 1, 0),
		C2:  conv(planes, planes, 3, stride, 1),
		C3:  conv(planes, cout, 1, 1, 0),
		BN1: NewBatchNorm(planes),
		BN2: NewBatchNorm(planes),
		BN3: NewBatchNorm(cout),
	}
	if cin != cout || stride != 1 {
		r.Proj = conv(cin, cout, 1, stride, 0)
		r.ProjBN = NewBatchNorm(cout)
	}
	return r
}

func (r *Residual) Name() string {
	return fmt.Sprintf("res[%s-%s-%s]", r.C1.Name(), r.C2.Name(), r.C3.Name())
}

func (r *Residual) OutShape(in Shape) Shape {
	return r.C3.OutShape(r.C2.OutShape(r.C1.OutShape(in)))
}

// Convs returns the block's conv layers (including projection if any).
func (r *Residual) Convs() []*Conv {
	cs := []*Conv{r.C1, r.C2, r.C3}
	if r.Proj != nil {
		cs = append(cs, r.Proj)
	}
	return cs
}

func (r *Residual) Forward(x *tensor.Tensor, tr *Trace) *tensor.Tensor {
	relu := ReLU{}
	save := ""
	if tr != nil {
		save = tr.prefix
		tr.prefix = save + r.Name() + "/"
		defer func() { tr.prefix = save }()
	}
	y := relu.Forward(r.BN1.Forward(r.C1.Forward(x, tr), nil), nil)
	y = relu.Forward(r.BN2.Forward(r.C2.Forward(y, tr), nil), nil)
	y = r.BN3.Forward(r.C3.Forward(y, tr), nil)
	short := x
	if r.Proj != nil {
		short = r.ProjBN.Forward(r.Proj.Forward(x, tr), nil)
	}
	y.AddInPlace(short)
	return relu.Forward(y, nil)
}
