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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"sre/internal/compress"
	"sre/internal/core"
	"sre/internal/isaac"
	"sre/internal/mapping"
	"sre/internal/nn"
	"sre/internal/parallel"
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

// Build packages every matrix layer of the spec's network as a
// compression structure over its pruned synthetic weights, with a
// synthetic activation source. Each layer takes its shape from the
// weightless topology walk (Shells), its weights from prunedWeights,
// and its structure from one pooled scan of them; the layers build
// largest first on pool (nil builds serially), each into its own slot.
// Every stream a layer draws from is keyed by its path, so the result
// is reproducible and the same at any pool width and in any order.
func (s Spec) Build(mode PruneMode, p quant.Params, g mapping.Geometry, seed uint64, pool *parallel.Pool) (*Built, error) {
	infos, err := s.layerInfos()
	if err != nil {
		return nil, err
	}
	if err := s.checkPrune(mode, infos); err != nil {
		return nil, err
	}
	root := s.streamRoot(seed)
	b := &Built{Spec: s, Layers: make([]core.Layer, len(infos)), Stats: make([]LayerStats, len(infos))}
	largestFirst(pool, infos, func(i int) {
		li := infos[i]
		w, maxAbs, zeros := s.prunedWeights(root, li, mode, p)
		segRows := 1
		if li.Kind == nn.KindConv {
			segRows = li.K * li.K
		}
		st, snrram := compress.BuildOn(pool, compress.NewFloatSourceMax(w, p, maxAbs), p, g, segRows)
		b.Stats[i] = LayerStats{WeightZeros: zeros, WeightTotal: int64(li.Rows) * int64(li.Cols), SNrramCells: snrram}
		b.Layers[i] = s.shell(root, li, p.ABits).Layer
		b.Layers[i].Struct = st
	})
	return b, nil
}

// layerInfos walks the spec's topology for its matrix layers' shapes,
// allocating no weight.
func (s Spec) layerInfos() ([]nn.LayerInfo, error) {
	return nn.Shapes(s.Name, s.Input, s.Topology)
}

// checkPrune validates every layer's prune passes up front: a fraction
// outside [0, 1] would panic in a pool worker, out of the caller's
// reach.
func (s Spec) checkPrune(mode PruneMode, infos []nn.LayerInfo) error {
	for _, li := range infos {
		for _, ps := range s.pruneSpecs(mode, li) {
			if err := ps.Validate(); err != nil {
				return fmt.Errorf("workload: %s layer %s: %w", s.Name, li.Path, err)
			}
		}
	}
	return nil
}

// largestFirst calls build(i) for every layer index on pool, the
// layers with the most weights first: a layer's weight walk is serial,
// so the longest ones start earliest.
func largestFirst(pool *parallel.Pool, infos []nn.LayerInfo, build func(i int)) {
	order := make([]int, len(infos))
	for i := range order {
		order[i] = i
	}
	size := func(i int) int64 { return int64(infos[i].Rows) * int64(infos[i].Cols) }
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(size(b), size(a)) })
	pool.For(context.Background(), len(order), func(start, end int) {
		for _, i := range order[start:end] {
			build(i)
		}
	})
}

// Shell is one matrix layer as the spec, the activation width and the
// seed fix it before any weight exists: its logical weight-matrix dims
// and every core.Layer field but Struct. Build completes it with the
// structure of the layer's weights; snapshot.Decode with the structure
// of a file's planes, once the file's claims match it.
type Shell struct {
	Rows, Cols int
	Layer      core.Layer
}

// Shells returns the spec's layer shells in Build's order, from the
// weightless topology walk alone.
func (s Spec) Shells(abits int, seed uint64) ([]Shell, error) {
	infos, err := s.layerInfos()
	if err != nil {
		return nil, err
	}
	root := s.streamRoot(seed)
	out := make([]Shell, len(infos))
	for i, li := range infos {
		out[i] = s.shell(root, li, abits)
	}
	return out, nil
}

// shell derives matrix layer li's shell from the spec's stream root.
func (s Spec) shell(root *xrand.RNG, li nn.LayerInfo, abits int) Shell {
	return Shell{Rows: li.Rows, Cols: li.Cols, Layer: core.Layer{
		Name:          li.Path,
		Acts:          s.syntheticActs(root, li, abits),
		Masks:         core.NewMaskPlanes(),
		OutputBits:    int64(li.Windows) * int64(li.Cols) * int64(abits),
		ParallelGroup: li.ParallelGroup,
	}}
}

// prunedWeights synthesizes matrix layer li's weight matrix from its
// own streams under root and returns it with its largest magnitude and
// its zero count. The weights are right-skewed, |N(0, 0.3)|-like
// magnitudes, so that the high cell groups of most weights are zero
// (the Fig. 4 bit-level effect), pruned by the mode's passes and then
// clamped by the spec's slice cap. The passes' draws do not depend on
// the weights, so each row's zeros are marked first (prune.Rows, in
// ApplyMatrix's order); the weight stream then runs the polar method's
// acceptance test for every element, advancing exactly as a full
// NormFloat64 per element would, and takes the Log and Sqrt only for
// the survivors. The result is bit-identical to drawing every weight
// and pruning in place. Build and BuildOCCStructures both take their
// weights from here, so the OCC structures see exactly the weights
// Build's structures do.
func (s Spec) prunedWeights(root *xrand.RNG, li nn.LayerInfo, mode PruneMode, p quant.Params) (w *tensor.Tensor, maxAbs float32, zeros int64) {
	var passes []*prune.Rows
	for pi, spec := range s.pruneSpecs(mode, li) {
		passes = append(passes, prune.NewRows(li.Rows, li.Cols, spec, root.Split(fmt.Sprintf("p%d/%s", pi, li.Path))))
	}
	r := *root.Split("w/" + li.Path)
	w = tensor.New(li.Rows, li.Cols)
	d := w.Data()
	zero := make([]bool, li.Cols)
	for i := 0; i < li.Rows; i++ {
		clear(zero)
		for _, pass := range passes {
			pass.Next(zero)
		}
		row := d[i*li.Cols : (i+1)*li.Cols]
		for j, z := range zero {
			var u, sq float64
			r, u, sq = xrand.Polar(r)
			if z {
				zeros++
				continue
			}
			v := float32(xrand.Norm(u, sq) * 0.3)
			row[j] = v
			if v == 0 {
				zeros++
			}
			maxAbs = max(maxAbs, float32(math.Abs(float64(v))))
		}
	}
	if s.SliceCap > 0 {
		// Clamping keeps every non-zero weight non-zero and the largest
		// magnitudes as they are, so maxAbs and zeros still hold.
		prune.SliceSparsify(d, s.SliceCap, p.WBits, p.CellBits)
	}
	return w, maxAbs, zeros
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
// compression structures aligned one-to-one with Build's layers, largest
// first on pool like Build. Kept separate from Build so the common
// experiments do not pay the extra scan.
func (s Spec) BuildOCCStructures(mode PruneMode, p quant.Params, g mapping.Geometry, seed uint64, pool *parallel.Pool) ([]*compress.OCCStructure, error) {
	infos, err := s.layerInfos()
	if err != nil {
		return nil, err
	}
	if err := s.checkPrune(mode, infos); err != nil {
		return nil, err
	}
	root := s.streamRoot(seed)
	out := make([]*compress.OCCStructure, len(infos))
	largestFirst(pool, infos, func(i int) {
		w, maxAbs, _ := s.prunedWeights(root, infos[i], mode, p)
		out[i] = compress.BuildOCC(compress.NewFloatSourceMax(w, p, maxAbs), p, g)
	})
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
// chanMax. The fast path forms lnA = Log(windowMax) + y·Ln2 instead,
// and v = tableExp(lnA·u'). With ε = 2⁻⁵², Go's Exp and Log err by
// under ε relative, Pow(2, y) (an Exp of the fractional part, a
// reciprocal and a scaling that rounds only into subnormals) by under
// 4ε, and each rounding by ε/2, so with L = ln windowMax the two
// logarithms differ by at most ε·(5 + L + |y·ln2| + 2|lnA|). Where the
// fast path accepts a row, |y·ln2| and lnA are at most L, so the gap is
// at most (5+4L)ε, and the two values of v, after the products' and the
// two exponentials' roundings, differ relatively by at most
// (7+5L)ε + δ, where δ = expTableErr ≈ 12.2ε is tableExp's error bound.
// When Octaves ≥ 0, L is at most 11.1 for 16-bit activations and 22.2
// for 32-bit ones; it is at most 710 for any finite windowMax. The bound
// is then 1.7e-14 for 16-bit codes, 2.9e-14 for 32-bit ones and 8e-13
// at worst, which 2⁻³⁶ ≈ 1.5e-11 exceeds 870×, 500× and 18×. Compiling
// Log(windowMax) + y·Ln2 or tableExp's steps as fused multiply-adds, as
// GOAMD64=v3 may, only drops roundings. tableExp is proven only on
// [0, expTableMax], so a channel whose lnA lies above that, which takes
// negative Octaves or codes wider than 32 bits, is resolved exactly. The
// margin costs the exact path on a fraction of about 2·exactTol·v of
// the rows: under two per million for 16-bit codes, and about one in
// eight of the largest 32-bit ones.
const exactTol = 1.0 / (1 << 36)

// WindowCodes implements core.ActivationSource.
func (s *SyntheticActs) WindowCodes(w int, dst []uint32) {
	s.windowCodes(w, dst, exactTol)
}

// windowCodes fills dst with window w's codes: the arithmetic
// SyntheticActs defines, without its per-channel Pow and Log and, on
// almost every row, without its Exp. Each channel takes
// lnA = Log(windowMax) + y·Ln2 in place of the exact lnMax, and each
// non-zero row keeps v = tableExp(lnA·u) truncated by a uint32
// conversion when that is provably the defined code: lnA·(1−u) > tol,
// so the chanMax clamp cannot fire, and v lies farther than tol·v from
// both neighbouring integers. A channel with lnA < −tol is clamped to
// chanMax = 1 by the definition too. Any other channel, including one
// whose lnA is above expTableMax or NaN, or the rest of a channel from a
// row that fails the test, is resolved exactly. The RNG draws are the
// definition's, in its order, stepped with xrand.Next on a generator
// held in local variables; a row is zero when its draw's top 53 bits
// fall below zeroBelow(Sparsity), which is Bernoulli(Sparsity) exactly.
// tol = +Inf forces every channel onto the exact arithmetic; see
// exactTol for the bound.
func (s *SyntheticActs) windowCodes(w int, dst []uint32, tol float64) {
	if len(dst) != s.Rows {
		panic(fmt.Sprintf("workload: window wants %d rows, got %d", s.Rows, len(dst)))
	}
	r := *xrand.New(s.Seed + uint64(w)*0x9e3779b97f4a7c15)
	var x uint64
	globalMax := float64(uint64(1)<<uint(s.ABits) - 1)
	r, x = xrand.Next(r)
	windowMax := globalMax * math.Pow(2, -s.Octaves*unit(x))
	if windowMax < 1 {
		windowMax = 1
	}
	lnW := math.Log(windowMax)
	zeroCut := zeroBelow(s.Sparsity)
	chanOctaves := s.ChanOctaves
	rpc := s.RowsPerChan
	if rpc <= 0 {
		rpc = 1
	}
	var y, lnA, chanMax, lnMax float64
	exact := false
	left := 0 // rows left in the current channel
	for i := range dst {
		if left == 0 {
			left = rpc
			y = 0 // the channel's shift in octaves; Pow(2, 0) is exactly 1
			if chanOctaves > 0 {
				r, x = xrand.Next(r)
				y = -chanOctaves * unit(x)
			}
			lnA = lnW + y*math.Ln2
			// Negated tests, so that a NaN lnA takes the exact arithmetic.
			exact = !(lnA > tol && lnA <= expTableMax)
			chanMax, lnMax = 1.0, 0.0
			if exact && !(lnA < -tol) {
				chanMax, lnMax = chanScale(windowMax, y)
			}
		}
		left--
		r, x = xrand.Next(r)
		if x>>11 < zeroCut {
			dst[i] = 0
			continue
		}
		r, x = xrand.Next(r)
		u := unit(x)
		if !exact {
			if lnA*(1-u) > tol {
				v := tableExp(lnA * u)
				n := uint32(v)
				if f := float64(n); v-f > tol*v && f+1-v > tol*v {
					dst[i] = n
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

// unit is xrand's Float64 of the draw x: its top 53 bits scaled into
// [0, 1).
func unit(x uint64) float64 { return float64(x>>11) * (1.0 / (1 << 53)) }

// zeroBelow returns the integer threshold that makes x>>11 < zeroBelow(p)
// hold exactly when unit(x) < p, the test xrand's Bernoulli(p) makes.
// unit(x) is (x>>11)·2⁻⁵³, and scaling either side by 2^±53 is exact, so
// the test is x>>11 < p·2⁵³, which for an integer is x>>11 < ⌈p·2⁵³⌉. A p
// that is NaN or at most 0 is never exceeded, and one of at least 1
// always is.
func zeroBelow(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// expTableMax is the top of tableExp's proven range, 32·ln 2: e to it is
// 2³², so every code of up to 32 bits has its exponent below it.
const expTableMax = 32 * math.Ln2

// expTableErr is δ, the bound on tableExp's error relative to e^x over
// [0, expTableMax]. With x = k·ln2/32 + r, k within 0.5 + 3e-13 of
// x·32/ln2 so |r| ≤ ln2/64 to 1e-12 relative, the degree-5 Taylor
// polynomial's remainder is at most e^|r|·|r|⁶/720 < 2.27e-15 relative.
// k·ln2Hi32 is exact (k ≤ 2¹⁰ and ln2Hi32 has 32 significant bits) and
// within a factor of about two of x, so subtracting it rounds at most
// once, and r errs by under ε·|r| plus k times the split's residue, in
// all under 3e-18 relative to e^r. Horner's roundings add under 1.05·ε/2
// relative (|r| < 0.011 damps each inner one), the correctly rounded
// table entry ε/2, the final product ε/2, and adding k div 32 into the
// entry's exponent nothing. The total is under 2.27e-15 + 3.07·ε/2 <
// 2.62e-15, stated here with margin. A compiler that fuses any of these
// multiply-adds only drops roundings, and the integer-valued t stays
// integer-valued.
const expTableErr = 2.7e-15

// ln2Hi32 + ln2Lo32 is ln2/32 split for Cody–Waite reduction: ln2Hi32
// holds its leading 32 bits, so k·ln2Hi32 is exact for every k up to
// 2²¹, and ln2Lo32 the rest.
const (
	ln2Hi32 = 0x1.62e42feep-6
	ln2Lo32 = 0x1.a39ef35793c76p-38
)

// exp2Frac[j] is the bit pattern of 2^(j/32), correctly rounded
// (TestExp2FracCorrectlyRounded).
var exp2Frac = [32]uint64{
	0x3ff0000000000000, 0x3ff059b0d3158574, 0x3ff0b5586cf9890f, 0x3ff11301d0125b51,
	0x3ff172b83c7d517b, 0x3ff1d4873168b9aa, 0x3ff2387a6e756238, 0x3ff29e9df51fdee1,
	0x3ff306fe0a31b715, 0x3ff371a7373aa9cb, 0x3ff3dea64c123422, 0x3ff44e086061892d,
	0x3ff4bfdad5362a27, 0x3ff5342b569d4f82, 0x3ff5ab07dd485429, 0x3ff6247eb03a5585,
	0x3ff6a09e667f3bcd, 0x3ff71f75e8ec5f74, 0x3ff7a11473eb0187, 0x3ff82589994cce13,
	0x3ff8ace5422aa0db, 0x3ff93737b0cdc5e5, 0x3ff9c49182a3f090, 0x3ffa5503b23e255d,
	0x3ffae89f995ad3ad, 0x3ffb7f76f2fb5e47, 0x3ffc199bdd85529c, 0x3ffcb720dcef9069,
	0x3ffd5818dcfba487, 0x3ffdfc97337b9b5f, 0x3ffea4afa2a490da, 0x3fff50765b6e4540,
}

// tableExp returns e^x for x in [0, expTableMax] with relative error
// under expTableErr, cheaply enough to inline. Adding 1.5·2⁵² to
// x·32/ln2 rounds it to the nearest integer k and leaves k in the low
// bits of t; then e^x = 2^(k div 32) · 2^(k mod 32 / 32) · e^r, with
// r = x − k·ln2/32, the middle factor from exp2Frac, the first added
// into its exponent, and e^r from a degree-5 Taylor polynomial. Outside
// that range the result is unspecified.
func tableExp(x float64) float64 {
	t := x*(32/math.Ln2) + 0x1.8p52
	fk := t - 0x1.8p52
	r := x - fk*ln2Hi32 - fk*ln2Lo32
	k := math.Float64bits(t)
	return math.Float64frombits(exp2Frac[k&31]+k>>5<<52) * (1 + r*(1+r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120))))))
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
