package nn

import (
	"fmt"

	"sre/internal/tensor"
)

// GroupedConv is a grouped 2-D convolution (AlexNet/CaffeNet style): the
// input channels split into Groups equal slices, each convolved by its
// own filter bank, outputs concatenated. On a crossbar accelerator each
// group maps as an independent weight matrix — representing the layer as
// one block-diagonal matrix would hand the row-compression schemes a
// large fake sparsity windfall, so the walker enumerates one matrix
// layer per group instead.
type GroupedConv struct {
	Groups int
	Convs  []*Conv // one per group, each Cin/Groups → Cout/Groups
}

// NewGroupedConv builds a grouped conv over cin channels with cout total
// filters. cin and cout must divide by groups.
func NewGroupedConv(cin, cout, k, stride, pad, groups int) *GroupedConv {
	g := groupedConv(cin, cout, k, stride, pad, groups)
	allocWeights(g)
	return g
}

// groupedConv is NewGroupedConv without weights.
func groupedConv(cin, cout, k, stride, pad, groups int) *GroupedConv {
	if groups <= 0 || cin%groups != 0 || cout%groups != 0 {
		panic(fmt.Sprintf("nn: grouped conv %d/%d not divisible by %d groups", cin, cout, groups))
	}
	g := &GroupedConv{Groups: groups}
	for i := 0; i < groups; i++ {
		g.Convs = append(g.Convs, conv(cin/groups, cout/groups, k, stride, pad))
	}
	return g
}

func (g *GroupedConv) Name() string {
	c := g.Convs[0]
	s := fmt.Sprintf("conv%dx%dg%d", c.K, c.Cout*g.Groups, g.Groups)
	if c.Stride != 1 {
		s += fmt.Sprintf("s%d", c.Stride)
	}
	if c.Pad != 0 {
		s += fmt.Sprintf("p%d", c.Pad)
	}
	return s
}

func (g *GroupedConv) OutShape(in Shape) Shape {
	sub := g.Convs[0].OutShape(Shape{in[0] / g.Groups, in[1], in[2]})
	return Shape{sub[0] * g.Groups, sub[1], sub[2]}
}

func (g *GroupedConv) Forward(x *tensor.Tensor, tr *Trace) *tensor.Tensor {
	save := ""
	if tr != nil {
		save = tr.prefix
		tr.prefix = save + g.Name() + "/"
		defer func() { tr.prefix = save }()
	}
	cinG := x.Dim(0) / g.Groups
	outs := make([]*tensor.Tensor, g.Groups)
	for i, c := range g.Convs {
		outs[i] = c.Forward(channelSlice(x, i*cinG, cinG), tr)
	}
	return concatChannels(outs...)
}

// channelSlice copies channels [lo, lo+n) of a CHW tensor.
func channelSlice(x *tensor.Tensor, lo, n int) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	out := tensor.New(n, h, w)
	copy(out.Data(), x.Data()[lo*h*w:(lo+n)*h*w])
	return out
}
