package nn

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a Network from a compact topology string in the style of
// the paper's Table 2, e.g.
//
//	conv5x20-pool-conv5x50-pool-500-10
//
// Token grammar (tokens joined by '-'; '-' inside (…) or […] does not
// split):
//
//	convKxN[sS][pP]      conv, kernel K, N filters, stride S (1), pad P (0)
//	pool                 2×2/s2 max pool
//	poolKsS[pP]          K×K max pool, stride S, pad P
//	gap                  global average pool
//	avgpoolKsS           K×K average pool
//	N                    fully-connected layer with N outputs
//	inception(tag:a,b,c,d,e,f)   GoogLeNet module (1×1; 3×3r,3×3; 5×5r,5×5; proj)
//	[convline]xN         N ResNet bottleneck blocks; a stride suffix on the
//	                     first conv applies to the first block only
//
// A ReLU is inserted after every conv and FC layer except the final
// layer, matching the evaluated CNNs (activation sparsity comes from
// these ReLUs).
func Parse(name string, in Shape, topo string) (*Network, error) {
	net, err := parse(name, in, topo)
	if err != nil {
		return nil, err
	}
	for _, l := range net.Layers {
		allocWeights(l)
	}
	return net, nil
}

// Shapes is Parse without weights: it walks topo's shapes and returns
// what MatrixLayerInfos would, each LayerInfo's Layer nil, allocating
// no weight. Callers that need only the matrix layers' names, dims,
// windows and groups — every simulator build, and a snapshot checking
// a file against its key — use it, so the cost of a topology does not
// grow with its weight count.
func Shapes(name string, in Shape, topo string) ([]LayerInfo, error) {
	net, err := parse(name, in, topo)
	if err != nil {
		return nil, err
	}
	infos := net.MatrixLayerInfos()
	for i := range infos {
		infos[i].Layer = nil
	}
	return infos, nil
}

// parse builds topo's network with no weights allocated.
func parse(name string, in Shape, topo string) (net *Network, err error) {
	// Shape propagation panics on inconsistent geometry; surface that as a
	// parse error rather than crashing the caller.
	defer func() {
		if r := recover(); r != nil {
			net, err = nil, fmt.Errorf("nn: parse %q: %v", name, r)
		}
	}()
	tokens, err := splitTopLevel(topo)
	if err != nil {
		return nil, fmt.Errorf("nn: parse %q: %w", name, err)
	}
	net = &Network{NetName: name, InShape: in}
	shape := in
	matrix := 0
	for _, tok := range tokens {
		layers, out, err := parseToken(tok, shape)
		if err != nil {
			return nil, fmt.Errorf("nn: parse %q token %q: %w", name, tok, err)
		}
		for _, l := range layers {
			matrix += len(matrixLayers(l))
		}
		net.Layers = append(net.Layers, layers...)
		if len(net.Layers) > maxLayers || matrix > maxLayers {
			return nil, fmt.Errorf("nn: parse %q: more than %d layers", name, maxLayers)
		}
		shape = out
	}
	// Drop a trailing ReLU: the last layer produces logits.
	if n := len(net.Layers); n > 0 {
		if _, ok := net.Layers[n-1].(ReLU); ok {
			net.Layers = net.Layers[:n-1]
		}
	}
	if _, err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// splitTopLevel splits on '-' outside any parentheses/brackets.
func splitTopLevel(s string) ([]string, error) {
	var tokens []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced bracket at %d", i)
			}
		case '-':
			if depth == 0 {
				if len(tokens) == maxLayers {
					return nil, fmt.Errorf("more than %d layers", maxLayers)
				}
				tokens = append(tokens, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced brackets")
	}
	tokens = append(tokens, s[start:])
	for i, t := range tokens {
		tokens[i] = strings.TrimSpace(t)
		if tokens[i] == "" {
			return nil, fmt.Errorf("empty token %d", i)
		}
	}
	return tokens, nil
}

func parseToken(tok string, in Shape) ([]Layer, Shape, error) {
	switch {
	case strings.HasPrefix(tok, "conv"):
		c, err := parseConv(tok, in[0])
		if err != nil {
			return nil, nil, err
		}
		return []Layer{c, ReLU{}}, c.OutShape(in), nil

	case tok == "pool":
		p := &MaxPool{K: 2, Stride: 2}
		return []Layer{p}, p.OutShape(in), nil

	case strings.HasPrefix(tok, "pool"):
		k, s, p, err := parseKSP(tok[len("pool"):])
		if err != nil {
			return nil, nil, err
		}
		mp := &MaxPool{K: k, Stride: s, Pad: p}
		return []Layer{mp}, mp.OutShape(in), nil

	case tok == "gap":
		g := &AvgPool{}
		return []Layer{g}, g.OutShape(in), nil

	case strings.HasPrefix(tok, "avgpool"):
		k, s, _, err := parseKSP(tok[len("avgpool"):])
		if err != nil {
			return nil, nil, err
		}
		ap := &AvgPool{K: k, Stride: s}
		return []Layer{ap}, ap.OutShape(in), nil

	case strings.HasPrefix(tok, "inception("):
		m, err := parseInception(tok, in[0])
		if err != nil {
			return nil, nil, err
		}
		return []Layer{m}, m.OutShape(in), nil

	case strings.HasPrefix(tok, "["):
		return parseResidualGroup(tok, in)

	default:
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 {
			return nil, nil, fmt.Errorf("unrecognized token")
		}
		if n > maxLayerWidth {
			return nil, nil, fmt.Errorf("fc width %d exceeds limit %d", n, maxLayerWidth)
		}
		if elems := in.Elems(); elems > maxLayerWeights/n {
			return nil, nil, fmt.Errorf("fc %d×%d exceeds the weight limit", elems, n)
		}
		fc := &FC{In: in.Elems(), Out: n}
		return []Layer{fc, ReLU{}}, Shape{n}, nil
	}
}

// Parser sanity limits: topology strings may come from users, and a
// single absurd token ("8880000000") must fail cleanly instead of
// attempting a hundred-gigabyte weight allocation. maxLayers bounds the
// layers and the matrix layers a topology expands to, so that even a
// weightless walk (Shapes, which snapshot.Decode runs on a file's key)
// allocates in proportion to a real network, not to the string.
const (
	maxKernel       = 64
	maxLayerWidth   = 1 << 20 // filters / FC outputs
	maxLayerWeights = 1 << 31 // weights per layer
	maxRepeat       = 512
	maxLayers       = 1 << 14
)

// parseConv parses "convKxN[gG][sS][pP]": kernel K, N total filters,
// G groups (AlexNet/CaffeNet-style grouped convolution), stride, pad.
func parseConv(tok string, cin int) (Layer, error) {
	body := tok[len("conv"):]
	k, rest, err := leadingInt(body)
	if err != nil {
		return nil, fmt.Errorf("bad kernel: %w", err)
	}
	if !strings.HasPrefix(rest, "x") {
		return nil, fmt.Errorf("expected 'x' after kernel size")
	}
	n, rest, err := leadingInt(rest[1:])
	if err != nil {
		return nil, fmt.Errorf("bad filter count: %w", err)
	}
	stride, pad, groups := 1, 0, 1
	for rest != "" {
		switch rest[0] {
		case 's':
			stride, rest, err = mustLeadingInt(rest[1:])
		case 'p':
			pad, rest, err = mustLeadingInt(rest[1:])
		case 'g':
			groups, rest, err = mustLeadingInt(rest[1:])
		default:
			return nil, fmt.Errorf("unexpected suffix %q", rest)
		}
		if err != nil {
			return nil, err
		}
	}
	switch {
	case k <= 0 || k > maxKernel:
		return nil, fmt.Errorf("kernel %d outside [1,%d]", k, maxKernel)
	case n <= 0 || n > maxLayerWidth:
		return nil, fmt.Errorf("filter count %d outside [1,%d]", n, maxLayerWidth)
	case stride <= 0 || pad < 0 || pad > maxKernel:
		return nil, fmt.Errorf("bad stride/pad %d/%d", stride, pad)
	case groups < 1 || cin%groups != 0 || n%groups != 0:
		return nil, fmt.Errorf("groups %d must divide channels %d and filters %d", groups, cin, n)
	case groups > maxLayers:
		return nil, fmt.Errorf("%d groups exceed the layer limit %d", groups, maxLayers)
	case cin*k*k > maxLayerWeights/n:
		return nil, fmt.Errorf("conv %dx%dx%dx%d exceeds the weight limit", n, cin, k, k)
	}
	if groups > 1 {
		return groupedConv(cin, n, k, stride, pad, groups), nil
	}
	return conv(cin, n, k, stride, pad), nil
}

// parseKSP parses "KsS[pP]" pooling geometry.
func parseKSP(body string) (k, s, p int, err error) {
	k, rest, err := leadingInt(body)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad pool kernel: %w", err)
	}
	s = k
	if strings.HasPrefix(rest, "s") {
		s, rest, err = mustLeadingInt(rest[1:])
		if err != nil {
			return 0, 0, 0, err
		}
	}
	if strings.HasPrefix(rest, "p") {
		p, rest, err = mustLeadingInt(rest[1:])
		if err != nil {
			return 0, 0, 0, err
		}
	}
	if rest != "" {
		return 0, 0, 0, fmt.Errorf("unexpected suffix %q", rest)
	}
	return k, s, p, nil
}

// parseInception parses "inception(tag:a,b,c,d,e,f)" (tag optional).
func parseInception(tok string, cin int) (*Inception, error) {
	inner := strings.TrimSuffix(strings.TrimPrefix(tok, "inception("), ")")
	if len(inner) == len(tok) || !strings.HasSuffix(tok, ")") {
		return nil, fmt.Errorf("malformed inception token")
	}
	tag := ""
	if i := strings.IndexByte(inner, ':'); i >= 0 {
		tag, inner = inner[:i], inner[i+1:]
	}
	parts := strings.Split(inner, ",")
	if len(parts) != 6 {
		return nil, fmt.Errorf("inception wants 6 filter counts, got %d", len(parts))
	}
	var ns [6]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 || v > maxLayerWidth {
			return nil, fmt.Errorf("bad inception count %q", p)
		}
		ns[i] = v
	}
	if cin > maxLayerWeights/(25*max(ns[4], 1)) {
		return nil, fmt.Errorf("inception weights exceed the limit")
	}
	if tag == "" {
		tag = inner
	}
	return inception(tag, cin, ns[0], ns[1], ns[2], ns[3], ns[4], ns[5]), nil
}

// parseResidualGroup parses "[conv1xA[sS]-conv3xB-conv1xC]xN" into N
// bottleneck blocks.
func parseResidualGroup(tok string, in Shape) ([]Layer, Shape, error) {
	close := strings.LastIndexByte(tok, ']')
	if close < 0 {
		return nil, nil, fmt.Errorf("missing ']'")
	}
	inner := tok[1:close]
	suffix := tok[close+1:]
	if !strings.HasPrefix(suffix, "x") {
		return nil, nil, fmt.Errorf("residual group needs xN repeat suffix")
	}
	n, err := strconv.Atoi(suffix[1:])
	if err != nil || n <= 0 || n > maxRepeat {
		return nil, nil, fmt.Errorf("bad repeat count %q", suffix[1:])
	}
	parts, err := splitTopLevel(inner)
	if err != nil {
		return nil, nil, err
	}
	if len(parts) != 3 {
		return nil, nil, fmt.Errorf("bottleneck wants 3 convs, got %d", len(parts))
	}
	l1, err := parseConv(parts[0], in[0])
	if err != nil {
		return nil, nil, err
	}
	c1, ok := l1.(*Conv)
	if !ok {
		return nil, nil, fmt.Errorf("bottleneck convs cannot be grouped")
	}
	l2, err := parseConv(parts[1], c1.Cout)
	if err != nil {
		return nil, nil, err
	}
	c2, ok := l2.(*Conv)
	if !ok {
		return nil, nil, fmt.Errorf("bottleneck convs cannot be grouped")
	}
	l3, err := parseConv(parts[2], c2.Cout)
	if err != nil {
		return nil, nil, err
	}
	c3, ok := l3.(*Conv)
	if !ok {
		return nil, nil, fmt.Errorf("bottleneck convs cannot be grouped")
	}
	if c1.K != 1 || c2.K != 3 || c3.K != 1 {
		return nil, nil, fmt.Errorf("bottleneck pattern must be 1x1-3x3-1x1")
	}
	planes, cout := c1.Cout, c3.Cout
	stride := c1.Stride * c2.Stride // stride may be written on either conv
	var layers []Layer
	shape := in
	cin := in[0]
	for i := 0; i < n; i++ {
		s := 1
		if i == 0 {
			s = stride
		}
		r := residual(cin, planes, cout, s)
		layers = append(layers, r)
		shape = r.OutShape(shape)
		cin = cout
	}
	return layers, shape, nil
}

func leadingInt(s string) (int, string, error) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return 0, s, fmt.Errorf("expected integer at %q", s)
	}
	v, err := strconv.Atoi(s[:i])
	return v, s[i:], err
}

func mustLeadingInt(s string) (int, string, error) {
	v, rest, err := leadingInt(s)
	if err != nil {
		return 0, rest, err
	}
	return v, rest, nil
}
