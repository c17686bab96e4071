// Package workload defines the paper's six evaluated networks (Table 2)
// and builds simulator-ready layers for them: topology from internal/nn,
// weight zero-structure from internal/prune (SSL-style for Figs. 17–22 and
// 24, GSL-style for Fig. 23), and synthetic activation streams whose
// sparsity matches Table 2.
//
// Calibration knobs and what they stand in for (DESIGN.md §2):
//
//   - WeightSparsity / ActSparsity come straight from Table 2.
//   - RowFrac is the SSL structure share: the fraction of weight-matrix
//     rows (filter pixels shared across filters) zeroed entirely.
//     CaffeNet and VGG-16 were released by the SSL authors and are
//     heavily row-structured; the others were trained by the paper's
//     authors and are not, which the paper calls out when explaining
//     their smaller ORC gains.
//   - ColFrac zeroes whole filters (matrix columns) — SSL also learns
//     filter-wise sparsity, and it is what lets naive crossbar-row
//     compression remove rows that ReCom's whole-matrix-row criterion
//     cannot (the paper's §7.1 naive-vs-ReCom observation).
//   - ActOctaves models the dynamic range of feature maps: each window's
//     local maximum sits a uniform number of octaves (0..ActOctaves)
//     below the layer's global maximum, and element magnitudes are
//     log-uniform below that. Real post-ReLU maps behave this way, and
//     it is what makes whole high-order bit slices of a batch all-zero —
//     the main source of DOF's large gains. ResNet-50's many batch-norm
//     layers re-normalize per channel and widen this spread the most
//     (the paper's stated reason for its largest DOF gain).
package workload

import (
	"fmt"
	"math"

	"sre/internal/compress"
	"sre/internal/core"
	"sre/internal/isaac"
	"sre/internal/mapping"
	"sre/internal/nn"
	"sre/internal/prune"
	"sre/internal/quant"
	"sre/internal/tensor"
	"sre/internal/xrand"
)

// PruneMode selects which training-time pruning the synthetic weights
// imitate.
type PruneMode int

const (
	SSL     PruneMode = iota // structured (Figs. 17–22, 24)
	GSL                      // unstructured per-layer (Fig. 23)
	NoPrune                  // dense weights
)

func (m PruneMode) String() string {
	switch m {
	case SSL:
		return "ssl"
	case GSL:
		return "gsl"
	default:
		return "none"
	}
}

// Spec describes one Table 2 network.
type Spec struct {
	Name           string
	Display        string // topology exactly as Table 2 prints it
	Topology       string // canonical string for nn.Parse
	Input          nn.Shape
	WeightSparsity float64 // Table 2 (overall, parameter-weighted)
	ActSparsity    float64 // Table 2
	ConvSparsity   float64 // SSL per-conv-layer sparsity (cycle-relevant)
	FCSparsity     float64 // SSL per-FC-layer sparsity (parameter-heavy)
	RowFrac        float64 // SSL whole-matrix-row share (what ReCom/naive exploit)
	ColFrac        float64 // SSL whole-filter share
	SegFrac        float64 // SSL narrow (OU-group-wide) row-segment share — ORC's structure
	TileSegFrac    float64 // SSL crossbar-wide row-segment share — naive's edge over ReCom
	ActOctaves     float64 // per-window dynamic-range spread (calibrated)
	ActChanOctaves float64 // per-channel dynamic-range spread (batch-norm effect)
	IndexBits      int     // §6: chosen index width
	GSLConv        float64 // Fig. 23 per-conv-layer sparsity
	GSLFC          float64 // Fig. 23 per-FC-layer sparsity
	Large          bool    // ImageNet-scale (Fig. 23's subject set)
	// SliceCap, when positive, clamps each layer's pruned weights
	// (prune.SliceSparsify) so their quantized codes fit in the SliceCap
	// least-significant weight bit slices — the slice-sparse structure
	// the WSS modes elide. 0 leaves weights untouched, so every existing
	// build stays bit-identical. Not part of Table 2; the WSS
	// composability experiment sets it on a spec copy.
	SliceCap int
}

// Specs returns the six evaluated networks in Table 2 order.
func Specs() []Spec {
	return []Spec{
		{
			Name:           "MNIST",
			Display:        "conv5x20-pool-conv5x50-pool-500-10",
			Topology:       "conv5x20-pool-conv5x50-pool-500-10",
			Input:          nn.Shape{1, 28, 28},
			WeightSparsity: 0.42, ActSparsity: 0.28,
			ConvSparsity: 0.40, FCSparsity: 0.45,
			RowFrac: 0.15, ColFrac: 0.03, SegFrac: 0.12, TileSegFrac: 0.05, ActOctaves: 12, ActChanOctaves: 2, IndexBits: 5,
			GSLConv: 0.35, GSLFC: 0.55,
		},
		{
			Name:           "CIFAR-10",
			Display:        "conv5x32-pool-conv5x32-pool-conv5x64-pool-64-10",
			Topology:       "conv5x32p2-pool-conv5x32p2-pool-conv5x64p2-pool-64-10",
			Input:          nn.Shape{3, 32, 32},
			WeightSparsity: 0.34, ActSparsity: 0.22,
			ConvSparsity: 0.33, FCSparsity: 0.40,
			RowFrac: 0.14, ColFrac: 0.03, SegFrac: 0.10, TileSegFrac: 0.04, ActOctaves: 9, ActChanOctaves: 2, IndexBits: 5,
			GSLConv: 0.30, GSLFC: 0.50,
		},
		{
			Name:    "CaffeNet",
			Display: "conv11x96-conv5x256-conv3x384-conv3x384-conv3x256-4096-4096-1000",
			Topology: "conv11x96s4-pool3s2-conv5x256g2p2-pool3s2-conv3x384p1-conv3x384g2p1-" +
				"conv3x256g2p1-pool3s2-4096-4096-1000",
			Input:          nn.Shape{3, 227, 227},
			WeightSparsity: 0.91, ActSparsity: 0.21,
			ConvSparsity: 0.65, FCSparsity: 0.93,
			RowFrac: 0.15, ColFrac: 0.05, SegFrac: 0.78, TileSegFrac: 0.10, ActOctaves: 5.5, ActChanOctaves: 2, IndexBits: 5,
			GSLConv: 0.40, GSLFC: 0.90, Large: true,
		},
		{
			Name: "VGG-16",
			Display: "conv3x64-conv3x64-pool-conv3x128-conv3x128-pool-conv3x256×3-pool-" +
				"conv3x512×3-pool-conv3x512×3-pool-4096-4096-1000",
			Topology: "conv3x64p1-conv3x64p1-pool-conv3x128p1-conv3x128p1-pool-" +
				"conv3x256p1-conv3x256p1-conv3x256p1-pool-" +
				"conv3x512p1-conv3x512p1-conv3x512p1-pool-" +
				"conv3x512p1-conv3x512p1-conv3x512p1-pool-4096-4096-1000",
			Input:          nn.Shape{3, 224, 224},
			WeightSparsity: 0.95, ActSparsity: 0.41,
			ConvSparsity: 0.86, FCSparsity: 0.97,
			RowFrac: 0.15, ColFrac: 0.05, SegFrac: 0.95, TileSegFrac: 0.08, ActOctaves: 11, ActChanOctaves: 7, IndexBits: 5,
			GSLConv: 0.30, GSLFC: 0.92, Large: true,
		},
		{
			Name: "GoogLeNet",
			Display: "conv7x64-pool-conv3x192-pool-inception(3a)…(4e)-pool-" +
				"inception(5a)-inception(5b)-pool-1000",
			Topology: "conv7x64s2p3-pool3s2-conv3x192p1-pool3s2-" +
				"inception(3a:64,96,128,16,32,32)-inception(3b:128,128,192,32,96,64)-pool3s2-" +
				"inception(4a:192,96,208,16,48,64)-inception(4b:160,112,224,24,64,64)-" +
				"inception(4c:128,128,256,24,64,64)-inception(4d:112,144,288,32,64,64)-" +
				"inception(4e:256,160,320,32,128,128)-pool3s2-" +
				"inception(5a:256,160,320,32,128,128)-inception(5b:384,192,384,48,128,128)-" +
				"gap-1000",
			Input:          nn.Shape{3, 224, 224},
			WeightSparsity: 0.79, ActSparsity: 0.37,
			ConvSparsity: 0.79, FCSparsity: 0.70,
			RowFrac: 0.14, ColFrac: 0.04, SegFrac: 0.22, TileSegFrac: 0.05, ActOctaves: 9, ActChanOctaves: 3, IndexBits: 3,
			GSLConv: 0.45, GSLFC: 0.70, Large: true,
		},
		{
			Name: "ResNet-50",
			Display: "conv7x64-pool-[conv1x64-conv3x64-conv1x256]x3-" +
				"[conv1x128-conv3x128-conv1x512]x4-[conv1x256-conv3x256-conv1x1024]x6-" +
				"[conv1x512-conv3x512-conv1x2048]x3-pool-1000",
			Topology: "conv7x64s2p3-pool3s2p1-[conv1x64-conv3x64-conv1x256]x3-" +
				"[conv1x128s2-conv3x128-conv1x512]x4-[conv1x256s2-conv3x256-conv1x1024]x6-" +
				"[conv1x512s2-conv3x512-conv1x2048]x3-gap-1000",
			Input:          nn.Shape{3, 224, 224},
			WeightSparsity: 0.81, ActSparsity: 0.46,
			ConvSparsity: 0.81, FCSparsity: 0.70,
			RowFrac: 0.14, ColFrac: 0.04, SegFrac: 0.22, TileSegFrac: 0.05, ActOctaves: 15, ActChanOctaves: 12, IndexBits: 3,
			GSLConv: 0.45, GSLFC: 0.70, Large: true,
		},
	}
}

// SpecByName returns the named spec.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown network %q", name)
}

// Network parses and returns the spec's nn topology with zero weights.
func (s Spec) Network() (*nn.Network, error) {
	return nn.Parse(s.Name, s.Input, s.Topology)
}

// Built is a simulator-ready network: per-layer compression structures
// and activation sources. The weights themselves are no longer
// referenced once each layer's structure is built; LayerStats keeps the
// weight-level counts experiments report.
type Built struct {
	Spec   Spec
	Layers []core.Layer
	Stats  []LayerStats
}

// LayerStats records weight-level counts measured while building.
type LayerStats struct {
	WeightZeros int64 // exactly-zero weights after pruning
	WeightTotal int64
	SNrramCells int64 // cells SNrram's filter-grained column compression keeps
}

// WeightSparsityBuilt returns the parameter-weighted zero fraction of the
// built (pruned) weights.
func (b *Built) WeightSparsityBuilt() float64 {
	var zeros, total int64
	for _, s := range b.Stats {
		zeros += s.WeightZeros
		total += s.WeightTotal
	}
	if total == 0 {
		return 0
	}
	return float64(zeros) / float64(total)
}

// SNrramCells sums the SNrram-retained cells over all layers.
func (b *Built) SNrramCells() int64 {
	var n int64
	for _, s := range b.Stats {
		n += s.SNrramCells
	}
	return n
}

// Build constructs the network, fills weights with a right-skewed random
// magnitude distribution, prunes them per mode, and packages every matrix
// layer with a synthetic activation source. Each layer uses an
// independent RNG stream keyed by its path, so results are reproducible
// and order-independent.
func (s Spec) Build(mode PruneMode, p quant.Params, g mapping.Geometry, seed uint64) (*Built, error) {
	net, err := s.Network()
	if err != nil {
		return nil, err
	}
	root := s.streamRoot(seed)
	b := &Built{Spec: s}
	for _, li := range net.MatrixLayerInfos() {
		w := s.prunedWeights(root, li, mode, p)
		src := compress.NewFloatSource(w, p)
		st := compress.Build(src, p, g)
		var zeros int64
		for _, v := range w.Data() {
			if v == 0 {
				zeros++
			}
		}
		segRows := 1
		if li.Kind == nn.KindConv {
			segRows = li.K * li.K
		}
		b.Stats = append(b.Stats, LayerStats{
			WeightZeros: zeros,
			WeightTotal: int64(len(w.Data())),
			SNrramCells: compress.SNrramCompressedCells(src, p, segRows),
		})
		b.Layers = append(b.Layers, core.Layer{
			Name: li.Path, Struct: st, Acts: s.syntheticActs(root, li, p.ABits),
			Masks:         core.NewMaskPlanes(),
			OutputBits:    int64(li.Windows) * int64(li.Cols) * int64(p.ABits),
			ParallelGroup: li.ParallelGroup,
		})
	}
	return b, nil
}

// prunedWeights synthesizes matrix layer li's weight matrix from its
// own streams under root: right-skewed random magnitudes, the prune
// mode's passes, then the spec's slice cap. Build and
// BuildOCCStructures both take their weights from here, so the OCC
// structures see exactly the weights Build's structures do.
func (s Spec) prunedWeights(root *xrand.RNG, li nn.LayerInfo, mode PruneMode, p quant.Params) *tensor.Tensor {
	r := root.Split("w/" + li.Path)
	w := li.Layer.WeightMatrix()
	// Right-skewed magnitudes: |N(0, 0.3·max)| so that high cell
	// groups of most weights are zero (the Fig. 4 bit-level effect).
	d := w.Data()
	for i := range d {
		d[i] = float32(r.NormFloat64() * 0.3)
	}
	for pi, spec := range s.pruneSpecs(mode, li) {
		prune.ApplyMatrix(w, spec, root.Split(fmt.Sprintf("p%d/%s", pi, li.Path)))
	}
	if s.SliceCap > 0 {
		prune.SliceSparsify(w.Data(), s.SliceCap, p.WBits, p.CellBits)
	}
	return w
}

// streamRoot is the RNG every per-layer stream of the spec's network is
// split from: Build's weights, prune passes and activation sources, and
// VariantSources' re-derived activations.
func (s Spec) streamRoot(seed uint64) *xrand.RNG {
	return xrand.New(seed).Split("workload/" + s.Name)
}

// syntheticActs returns the activation source Build attaches to matrix
// layer li. It needs no weights, so tests can derive every layer's
// source cheaply.
func (s Spec) syntheticActs(root *xrand.RNG, li nn.LayerInfo, abits int) *SyntheticActs {
	rowsPerChan := 1
	if li.Kind == nn.KindConv && li.K > 0 {
		rowsPerChan = li.K * li.K
	}
	return &SyntheticActs{
		Rows:        li.Rows,
		NWindows:    li.Windows,
		Sparsity:    s.ActSparsity,
		Octaves:     s.ActOctaves,
		ChanOctaves: s.ActChanOctaves,
		RowsPerChan: rowsPerChan,
		ABits:       abits,
		Seed:        root.Split("a/" + li.Path).Uint64(),
	}
}

// VariantSources returns one activation source per layer, re-deriving
// every synthetic source's per-layer RNG stream from actSeed exactly
// as Build derives it from the build seed: xrand.Split is a pure
// function of (parent state, label), so the per-layer seed depends
// only on (actSeed, spec name, layer path) — no weight regeneration,
// no ordering sensitivity. actSeed equal to the build seed reproduces
// the built-in sources bit-identically; layers whose source is not a
// *SyntheticActs keep their own source. The batched multi-activation
// sweep (sre.RunBatchContext) is the consumer.
func (s Spec) VariantSources(layers []core.Layer, actSeed uint64) []core.ActivationSource {
	root := s.streamRoot(actSeed)
	out := make([]core.ActivationSource, len(layers))
	for i := range layers {
		sa, ok := layers[i].Acts.(*SyntheticActs)
		if !ok {
			out[i] = layers[i].Acts
			continue
		}
		v := *sa
		v.Seed = root.Split("a/" + layers[i].Name).Uint64()
		out[i] = &v
	}
	return out
}

// pruneSpecs returns the zero-structure passes for a layer under a prune
// mode; passes compose (zeros union), which lets SSL mix several segment
// granularities: narrow (2-logical-column ≈ one OU group) segments that
// only ORC can exploit, crossbar-wide (16-column) segments that naive
// crossbar-row compression also catches (the paper's §7.1 naive > ReCom
// observation), whole rows that every row scheme catches, and leftover
// element zeros sized to hit the per-kind sparsity target.
func (s Spec) pruneSpecs(mode PruneMode, li nn.LayerInfo) []prune.Spec {
	switch mode {
	case SSL:
		if li.Kind == nn.KindConv {
			// Channel-granular segments for the ImageNet-scale nets:
			// SSL's group lasso zeroes whole (channel, filter-group)
			// blocks there. The small nets' layers have too few channel
			// blocks for that granularity to leave removable OU rows, so
			// they keep per-row segments.
			kk := 1
			if s.Large {
				kk = li.K * li.K
			}
			return []prune.Spec{
				{RowFrac: s.RowFrac, ColFrac: s.ColFrac,
					SegFrac: s.SegFrac, SegCols: 2, SegRows: kk,
					ElemFrac: prune.ElemFracFor(s.ConvSparsity,
						s.RowFrac, s.ColFrac, s.SegFrac, s.TileSegFrac)},
				{SegFrac: s.TileSegFrac, SegCols: 16, SegRows: kk},
			}
		}
		return []prune.Spec{{
			RowFrac:  s.RowFrac,
			ElemFrac: prune.ElemFracFor(s.FCSparsity, s.RowFrac),
		}}
	case GSL:
		if li.Kind == nn.KindConv {
			return []prune.Spec{{ElemFrac: s.GSLConv}}
		}
		return []prune.Spec{{ElemFrac: s.GSLFC}}
	default:
		return nil
	}
}

// BuildOCCStructures regenerates the network's pruned weights (same seed
// and prune mode, hence bit-identical) and builds the OU-column
// compression structures aligned one-to-one with Build's layers. Kept
// separate from Build so the common experiments do not pay the extra
// scan.
func (s Spec) BuildOCCStructures(mode PruneMode, p quant.Params, g mapping.Geometry, seed uint64) ([]*compress.OCCStructure, error) {
	net, err := s.Network()
	if err != nil {
		return nil, err
	}
	root := s.streamRoot(seed)
	var out []*compress.OCCStructure
	for _, li := range net.MatrixLayerInfos() {
		w := s.prunedWeights(root, li, mode, p)
		out = append(out, compress.BuildOCC(compress.NewFloatSource(w, p), p, g))
	}
	return out, nil
}

// ISAACInputs converts the built layers for the ISAAC model (Fig. 24).
func (b *Built) ISAACInputs() []isaac.LayerInput {
	out := make([]isaac.LayerInput, len(b.Layers))
	for i, l := range b.Layers {
		out[i] = isaac.LayerInput{
			Name:          l.Name,
			Struct:        l.Struct,
			Windows:       l.Acts.Windows(),
			OutputBits:    l.OutputBits,
			ParallelGroup: l.ParallelGroup,
		}
	}
	return out
}

// SyntheticActs generates deterministic activation codes per window.
// Each window first draws a local dynamic-range shift of
// Uniform(0, Octaves) octaves below the layer's global maximum — the
// window's own maximum, windowMax, at least 1. With ChanOctaves > 0,
// every run of RowsPerChan rows (one input channel) then draws a further
// Uniform(0, ChanOctaves) octaves below windowMax, its chanMax (again at
// least 1); otherwise chanMax is windowMax. Each element is zero with
// probability Sparsity or log-uniform in [1, chanMax]. The per-window
// shift is what leaves whole high-order bit slices of a batch all-zero,
// the dominant source of DOF cycle savings; the log-uniform body gives
// the bit-level input sparsity of Fig. 4(b).
//
// Codes are a pure function of (Seed, window) and the fields above, so
// WindowCodes is safe for concurrent use; TestWindowCodesDigests pins
// them for every Table 2 network.
type SyntheticActs struct {
	Rows        int
	NWindows    int
	Sparsity    float64
	Octaves     float64 // per-window dynamic-range spread
	ChanOctaves float64 // additional per-channel spread (batch-norm effect)
	RowsPerChan int     // rows sharing one channel scale (K·K for conv)
	ABits       int
	// Seed is the per-layer RNG stream root (derived from the build seed
	// and the layer path). Exported so internal/snapshot can persist and
	// reconstruct the source bit-identically.
	Seed uint64
}

// Windows implements core.ActivationSource.
func (s *SyntheticActs) Windows() int { return s.NWindows }

// exactTol is the margin by which the fast path of windowCodes must
// clear each decision before it trusts it, so that its codes equal the
// defining arithmetic's bit for bit.
//
// The definition takes, per channel, lnMax = Log(windowMax·Pow(2, y))
// (y = −ChanOctaves·u) and, per row, v = Exp(lnMax·u'), clamped to
// chanMax. The fast path forms lnA = Log(windowMax) + y·Ln2 instead. With
// ε = 2⁻⁵², Go's Exp and Log err by under ε relative, Pow(2, y) (an Exp
// of the fractional part, a reciprocal and a scaling that rounds only
// into subnormals) by under 4ε, and each rounding by ε/2, so with
// L = ln windowMax the two logarithms differ by at most
// ε·(5 + L + |y·ln2| + 2|lnA|). Where the fast path accepts a row,
// |y·ln2| and lnA are at most L, so the gap is at most (5+4L)ε, and the
// two values of v, after the products' and the two Exps' roundings,
// differ relatively by at most (7+5L)ε. When Octaves ≥ 0, L is at most
// 11.1 for 16-bit activations and 44.4 for any width; it is at most 710
// for any finite windowMax. The bound is then 1.4e-14 for 16-bit codes
// and 8e-13 at worst, which 2⁻³⁶ ≈ 1.5e-11 exceeds 1000× and 18×.
// Compiling Log(windowMax) + y·Ln2 as one fused multiply-add, as
// GOAMD64=v3 may, only drops a rounding. The margin costs the exact path
// on a fraction of about 2·exactTol·v of the rows, under two per million
// for 16-bit codes.
const exactTol = 1.0 / (1 << 36)

// WindowCodes implements core.ActivationSource.
func (s *SyntheticActs) WindowCodes(w int, dst []uint32) {
	s.windowCodes(w, dst, exactTol)
}

// windowCodes fills dst with window w's codes: the arithmetic
// SyntheticActs defines, without its per-channel Pow and Log. Each
// channel takes lnA = Log(windowMax) + y·Ln2 in place of the exact
// lnMax, and each non-zero row keeps floor(Exp(lnA·u)) when it is
// provably the defined code: lnA·(1−u) > tol, so the chanMax clamp
// cannot fire, and the value lies farther than tol·v from both
// neighbouring integers. A channel with lnA < −tol is clamped to
// chanMax = 1 by the definition too. Any other channel, or the rest of
// a channel from a row that fails the test, is resolved exactly. The
// RNG draws are the definition's, in its order. tol = +Inf forces every
// channel onto the exact arithmetic; see exactTol for the bound.
func (s *SyntheticActs) windowCodes(w int, dst []uint32, tol float64) {
	if len(dst) != s.Rows {
		panic(fmt.Sprintf("workload: window wants %d rows, got %d", s.Rows, len(dst)))
	}
	r := xrand.New(s.Seed + uint64(w)*0x9e3779b97f4a7c15)
	globalMax := float64(uint64(1)<<uint(s.ABits) - 1)
	windowMax := globalMax * math.Pow(2, -s.Octaves*r.Float64())
	if windowMax < 1 {
		windowMax = 1
	}
	lnW := math.Log(windowMax)
	rpc := s.RowsPerChan
	if rpc <= 0 {
		rpc = 1
	}
	for c := 0; c < len(dst); c += rpc {
		y := 0.0 // the channel's shift in octaves; Pow(2, 0) is exactly 1
		if s.ChanOctaves > 0 {
			y = -s.ChanOctaves * r.Float64()
		}
		lnA := lnW + y*math.Ln2
		// Negated tests, so that a NaN lnA takes the exact arithmetic.
		exact := !(lnA > tol)
		chanMax, lnMax := 1.0, 0.0
		if exact && !(lnA < -tol) {
			chanMax, lnMax = chanScale(windowMax, y)
		}
		end := min(c+rpc, len(dst))
		for i := c; i < end; i++ {
			if r.Bernoulli(s.Sparsity) {
				dst[i] = 0
				continue
			}
			u := r.Float64()
			if !exact {
				if lnA*(1-u) > tol {
					v := math.Exp(lnA * u)
					if f := math.Floor(v); v-f > tol*v && f+1-v > tol*v {
						dst[i] = uint32(v)
						continue
					}
				}
				chanMax, lnMax = chanScale(windowMax, y)
				exact = true
			}
			v := math.Exp(lnMax * u) // log-uniform in [1, chanMax]
			if v > chanMax {
				v = chanMax
			}
			dst[i] = uint32(v)
		}
	}
}

// chanScale is a channel's exact maximum, windowMax·2^y but at least 1,
// and its natural logarithm.
func chanScale(windowMax, y float64) (chanMax, lnMax float64) {
	chanMax = windowMax * math.Pow(2, y)
	if chanMax < 1 {
		chanMax = 1
	}
	return chanMax, math.Log(chanMax)
}

// MeanSliceDensity measures the average fraction of non-zero bits per
// DAC slice over sampled windows — the quantity that determines DOF
// gains (used by calibration tests and the Fig. 4 experiment).
func MeanSliceDensity(src core.ActivationSource, rows int, p quant.Params, sampleWindows int) float64 {
	w := src.Windows()
	if sampleWindows <= 0 || sampleWindows > w {
		sampleWindows = w
	}
	codes := make([]uint32, rows)
	spi := p.SlicesPerInput()
	mask := uint32(1)<<uint(p.DACBits) - 1
	var nz, total int64
	for i := 0; i < sampleWindows; i++ {
		src.WindowCodes(i*w/sampleWindows, codes)
		for _, c := range codes {
			for s := 0; s < spi; s++ {
				if c>>uint(s*p.DACBits)&mask != 0 {
					nz++
				}
			}
			total += int64(spi)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(nz) / float64(total)
}
