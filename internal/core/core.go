// Package core is the Sparse ReRAM Engine simulator — the paper's primary
// contribution rendered as an OU-level event-accurate performance and
// energy model.
//
// For every (layer, crossbar tile, input window, activation bit slice) it
// counts the OU activations each sparsity mode needs:
//
//	Baseline        slices · Σ_groups ceil(mappedRows/S_WL), mappedRows
//	                from the weight-compression plan (all rows for the
//	                no-compression baseline; fewer for Naive/ReCom/ORC);
//	DOF             per slice, only wordlines whose input bit is non-zero
//	                occupy OU slots: ceil(popcount(mask ∩ groupRows)/S_WL);
//	ORC+DOF         the same popcount restricted to the ORC-retained rows
//	                of each column group (fillers included).
//
// Crossbar tiles run in parallel, each with its own 3-stage pipeline
// (internal/pipeline); a layer's latency is the slowest tile's schedule
// and the network's latency is the sum over layers. Energy counts every
// OU activation, driven wordline, ADC conversion, eDRAM batch fetch (one
// per batch for input-order-preserving modes, one per column group when
// row compression reorders inputs — the Fig. 18 eDRAM effect), indexing
// blocks, and leakage.
//
// Large layers use deterministic window sampling (Config.MaxWindows):
// per-tile cycle and energy sums over the sampled windows scale by
// windows/sampled before the cross-tile maximum is taken.
//
// The simulator is parallel by default: window batch-work, per-tile
// pipeline schedules, and independent layers are sharded over a shared
// worker pool (internal/parallel, Config.Workers/Config.Pool). All
// cross-shard state is written to disjoint, pre-sized slots and the
// final reduction runs serially in a fixed order, so results are
// bit-identical to a single-worker run at any pool width.
// SimulateNetworkBatchContext runs several activation assignments
// through one engine pass, sharing everything that does not depend on
// the activation values; a single run (SimulateNetworkContext) is a
// batch of one.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"sre/internal/bitset"
	"sre/internal/buffer"
	"sre/internal/compress"
	"sre/internal/energy"
	"sre/internal/mapping"
	"sre/internal/metrics"
	"sre/internal/noc"
	"sre/internal/parallel"
	"sre/internal/pipeline"
	"sre/internal/quant"
	"sre/internal/reram"
	"sre/internal/tensor"
)

// Mode names a sparsity-exploitation configuration from the paper's
// evaluation (§6: baseline, naive, ReCom, ORC, DOF, ORC+DOF).
type Mode struct {
	Scheme compress.Scheme // weight compression
	DOF    bool            // dynamic OU formation (activation sparsity)
}

// The evaluated modes.
var (
	ModeBaseline = Mode{compress.Baseline, false}
	ModeNaive    = Mode{compress.Naive, false}
	ModeReCom    = Mode{compress.ReCom, false}
	ModeORC      = Mode{compress.ORC, false}
	ModeDOF      = Mode{compress.Baseline, true}
	ModeORCDOF   = Mode{compress.ORC, true}
	// ModeOCC is the §4.1 column-compression alternative; it cannot
	// combine with DOF (Fig. 10), which is why the paper's SRE uses ORC.
	ModeOCC = Mode{compress.OCC, false}
	// ModeWSS adds weight bit-slice sparsity on top of ORC's per-group
	// row compression: groups whose 16 same-slice columns hold only
	// all-zero weight bit slices map no OUs and issue no eDRAM fetch.
	ModeWSS = Mode{compress.WSS, false}
	// ModeORCDOFWSS composes all three axes: ORC-style row compression
	// per slice group, weight-slice elision, and Dynamic OU Formation.
	ModeORCDOFWSS = Mode{compress.WSS, true}
)

func (m Mode) String() string {
	switch {
	case m.Scheme == compress.Baseline && !m.DOF:
		return "baseline"
	case m.Scheme == compress.Baseline && m.DOF:
		return "dof"
	case m.Scheme == compress.ORC && m.DOF:
		return "orc+dof"
	case m.Scheme == compress.WSS && m.DOF:
		return "orc+dof+wss"
	case m.DOF:
		return m.Scheme.String() + "+dof"
	default:
		return m.Scheme.String()
	}
}

// Config selects the simulated hardware and mode.
type Config struct {
	Geometry   mapping.Geometry
	Quant      quant.Params
	Mode       Mode
	IndexBits  int // input-index width for row-compressing schemes (0 = unbounded)
	MaxWindows int // per-layer window sampling cap (0 = simulate all)
	Energy     energy.Config
	NoC        noc.Config    // zero value disables interconnect accounting
	Buffer     buffer.Config // zero value assumes the §5.3 one-cycle fetch

	// Workers is the simulation worker-pool width (0 = GOMAXPROCS).
	// Results are bit-identical at every width.
	Workers int
	// Pool, when non-nil, is the shared worker pool to draw from
	// (overrides Workers); sweeps use it to bound total concurrency
	// across concurrent SimulateNetworkContext calls.
	Pool *parallel.Pool
	// Progress, when non-nil, is called after each layer completes
	// during a network simulation, with the first batch input's result.
	// Calls are serialized but may arrive out of layer order when
	// layers overlap.
	Progress func(ProgressEvent)

	// Metrics, when non-nil, receives run observability: OU
	// activations, wordline-occupancy histograms, window sampling,
	// plan-cache traffic, and pool utilization. Hot loops write to
	// per-layer shards; nothing the registry records feeds back
	// into the simulation, so Cycles/Energy stay bit-identical to an
	// unmetered run.
	Metrics *metrics.Registry
}

// ProgressEvent reports one completed layer of a running network
// simulation.
type ProgressEvent struct {
	Index int // layer index in the input slice
	Count int // total layers in the simulation
	Done  int // layers completed so far, including this one
	Layer LayerResult
}

// pool resolves the worker pool a simulation draws from, switching on
// its execution accounting when the run is metered.
func (c Config) pool() *parallel.Pool {
	p := c.Pool
	if p == nil {
		p = parallel.New(c.Workers)
	}
	if c.Metrics != nil {
		p.EnableStats()
	}
	return p
}

// occupancyBounds are the wordline-occupancy histogram buckets. S_WL
// never exceeds 128 in any modelled geometry, so the top bucket always
// covers a full OU.
var occupancyBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// occName returns the per-mode occupancy histogram name.
func occName(m Mode) string {
	return fmt.Sprintf("sre_core_ou_occupancy{mode=%q}", m.String())
}

// observeOccupancy records the wordline fill of the OUs serving one
// column group with nz driven rows: nz/swl full OUs and, if nz is not a
// multiple of swl, one partial OU — repeated for reps identical groups.
func observeOccupancy(occ *metrics.Histogram, nz, swl int, reps int64) {
	if f := nz / swl; f > 0 {
		occ.ObserveN(int64(swl), int64(f)*reps)
	}
	if r := nz % swl; r > 0 {
		occ.ObserveN(int64(r), reps)
	}
}

// occClass returns the occupancyBounds bucket of a fill v ≥ 1: bucket
// k holds v in (2^(k-1), 2^k] and the last every v > 128, the classes
// bitset.TileOUs tallies partial OUs by.
func occClass(v int) int { return min(bits.Len(uint(v-1)), len(occupancyBounds)) }

// occTally is one phase-1 chunk's DOF occupancy: ous and wl sum the
// OUs and driven rows of every counted (slice, group), and part[k]
// counts the partial OUs of fill class k. That is the whole histogram:
// each group with nz driven rows records nz/swl full OUs and one
// partial OU of fill nz mod swl (observeOccupancy), so the count is
// ous, the sum is wl, and the ous − Σpart full OUs all fall in the
// bucket of swl.
type occTally struct {
	ous, wl int64
	part    [9]int64
}

// flush records the tally into occ. Phase 1 flushes once per chunk,
// which keeps the histogram's atomic adds out of its loops; every
// figure is an integer sum, so the histogram ends up exactly as if each
// group had been observed on its own.
func (t *occTally) flush(occ *metrics.Histogram, swl int) {
	counts, full := t.part, t.ous
	for _, n := range t.part {
		full -= n
	}
	counts[occClass(swl)] += full
	occ.AddBuckets(counts[:], t.wl)
}

// recordStaticOccupancy feeds occ the fixed per-slice OU fill of one
// tile's plans — without DOF every slice drives the same retained rows,
// so one pass over the plans, repeated reps = slices×windows times,
// replaces a per-window scan. OCC keeps every row mapped, so its OUs
// are full by construction.
func recordStaticOccupancy(occ *metrics.Histogram, tp *tilePlan, swl int, reps int64) {
	switch {
	case tp.plans != nil:
		if tp.plans.AllRows {
			// Baseline plans are virtualized (no plane words):
			// every group drives all TileRows rows, so batching the
			// Groups identical observations is additive-identical.
			observeOccupancy(occ, tp.plans.TileRows, swl, reps*int64(tp.plans.Groups))
			return
		}
		w := tp.plans.Words
		for g := 0; g < tp.plans.Groups; g++ {
			observeOccupancy(occ, bitset.CountWords(tp.plans.Plane[g*w:(g+1)*w]), swl, reps)
		}
	default:
		occ.ObserveN(int64(swl), tp.staticOUs*reps)
	}
}

// publishPoolMetrics records the pool's cumulative accounting as
// max-gauges. Gauges merge by maximum and the stats are monotonic, so
// repeated publishes from a shared pool (RunAll's modes, nested
// sweeps) converge on the final totals instead of double-counting.
func publishPoolMetrics(reg *metrics.Registry, pool *parallel.Pool) {
	if reg == nil {
		return
	}
	st := pool.Stats()
	if st == nil {
		return
	}
	sh := reg.Shard()
	defer reg.Release(sh)
	sh.Gauge("sre_parallel_pool_width").Set(int64(pool.Workers()))
	sh.Gauge("sre_parallel_for_calls").Set(st.ForCalls.Load())
	sh.Gauge("sre_parallel_items").Set(st.Items.Load())
	sh.Gauge("sre_parallel_chunks").Set(st.Chunks.Load())
	sh.Gauge("sre_parallel_workers_spawned").Set(st.Spawned.Load())
	sh.Gauge("sre_parallel_spawn_wait_ns").Set(st.SpawnWaitNanos.Load())
}

// DefaultConfig returns the Table 1 configuration in baseline mode.
func DefaultConfig() Config {
	return Config{
		Geometry:   mapping.Default(),
		Quant:      quant.Default(),
		Mode:       ModeBaseline,
		IndexBits:  5,
		MaxWindows: 64,
		Energy:     energy.Default(),
		NoC:        noc.Default(),
	}
}

// ADCBits returns the ADC resolution the OU height demands.
func (c Config) ADCBits() int { return reram.ADCBitsFor(c.Geometry.SWL, c.Quant.CellBits) }

// CycleTime returns the pipeline cycle in seconds.
func (c Config) CycleTime() float64 { return c.Energy.SRECycle(c.ADCBits()) }

// ActivationSource yields the quantized activation vector feeding a
// layer's crossbar rows for each input sliding window.
type ActivationSource interface {
	// Windows returns how many sliding windows the layer processes.
	Windows() int
	// WindowCodes fills dst (length = layer rows) with window w's
	// quantized activation codes. It must be safe for concurrent use:
	// phase 1 reads distinct windows from several workers at once.
	WindowCodes(w int, dst []uint32)
}

// TensorSource adapts a real traced activation tensor (CHW) to an
// ActivationSource via im2col, quantizing with a single per-layer scale.
type TensorSource struct {
	X              *tensor.Tensor
	K, Stride, Pad int
	ABits          int
	scale          float64
	wout, hout     int
}

// NewTensorSource builds a source for a conv layer's traced input. For
// FC layers pass K=0 (the whole tensor is the single window).
func NewTensorSource(x *tensor.Tensor, k, stride, pad, abits int) *TensorSource {
	ts := &TensorSource{X: x, K: k, Stride: stride, Pad: pad, ABits: abits}
	ts.scale = quant.ScaleFor(float64(x.MaxAbs()), abits)
	if k > 0 {
		ts.hout = tensor.ConvOutputDim(x.Dim(1), k, stride, pad)
		ts.wout = tensor.ConvOutputDim(x.Dim(2), k, stride, pad)
	}
	return ts
}

func (ts *TensorSource) Windows() int {
	if ts.K == 0 {
		return 1
	}
	return ts.hout * ts.wout
}

// WindowCodes gathers each window into its own im2col buffer, so
// concurrent calls share only the read-only tensor.
func (ts *TensorSource) WindowCodes(w int, dst []uint32) {
	vals := ts.X.Data()
	if ts.K > 0 {
		vals = tensor.Im2ColWindow(ts.X, ts.K, ts.Stride, ts.Pad, w/ts.wout, w%ts.wout, nil)
	}
	if len(dst) != len(vals) {
		panic(fmt.Sprintf("core: window codes length %d, layer rows %d", len(vals), len(dst)))
	}
	for i, v := range vals {
		if v < 0 {
			v = -v
		}
		dst[i] = quant.QuantizeUnsigned(float64(v), ts.ABits, ts.scale)
	}
}

// Layer pairs one layer's compression structure with its activations.
// OCC is only needed for the ModeOCC extension (compress.BuildOCC).
type Layer struct {
	Name   string
	Struct *compress.Structure
	OCC    *compress.OCCStructure
	Acts   ActivationSource
	// Masks, when non-nil, caches the slice masks of Acts' sampled
	// windows so the DOF modes of a sweep (and repeated runs) share one
	// build instead of re-reading Acts per run (workload.Build attaches
	// one to every layer).
	Masks *MaskPlanes
	// OutputBits is the layer's output feature-map size; when the config
	// carries an interconnect, handing it to the next layer's PEs costs
	// NoC energy (overlapped with compute, so no latency).
	OutputBits int64
	// ParallelGroup marks consecutive layers that run concurrently on
	// disjoint crossbars (grouped convolutions): their latency is the
	// maximum of the group, their energy the sum.
	ParallelGroup string
}

// LayerResult reports one layer under one config.
type LayerResult struct {
	Name     string
	Windows  int
	Sampled  int
	Cycles   int64 // slowest tile's pipelined schedule
	Stalls   int64
	OUEvents int64 // summed over all tiles (energy-relevant)
	Fetches  int64
	Time     float64 // seconds
	Energy   energy.Breakdown
}

// NetworkResult aggregates layers.
type NetworkResult struct {
	Layers []LayerResult
	Cycles int64
	Time   float64
	Energy energy.Breakdown
}

// Total satisfies common reporting.
func (r NetworkResult) TotalOUEvents() int64 {
	var n int64
	for _, l := range r.Layers {
		n += l.OUEvents
	}
	return n
}

// SimulateNetworkContext runs every layer, overlapping independent
// layers on the worker pool, and sums modelled latency and energy. The
// modelled hardware still executes layers sequentially — overlap only
// accelerates the simulation itself, and the fixed-order reduction
// keeps results bit-identical to a single-worker run. Returns ctx.Err
// if the context is cancelled before the simulation completes, or the
// first (lowest-index) layer's configuration error otherwise. It is a
// batch of one input: the layers' own activations.
func SimulateNetworkContext(ctx context.Context, layers []Layer, cfg Config) (NetworkResult, error) {
	out, err := SimulateNetworkBatchContext(ctx, layers, cfg, []BatchInput{{}})
	if err != nil {
		return NetworkResult{}, err
	}
	return out[0], nil
}

// BatchInput is one activation assignment of a batched simulation.
// Sources[i], when non-nil, replaces layer i's activation source and
// must agree with it on the window count; a nil element — or a nil
// Sources slice — keeps the layer's own Acts. Substituted sources
// bypass the layer's mask-plane cache (it holds the layer's own
// activations), so they are read per window.
type BatchInput struct {
	Sources []ActivationSource
}

// SimulateNetworkBatchContext runs every layer once per batch input
// and returns one NetworkResult per input, in batch order. Result j is
// bit-identical to SimulateNetworkContext over layers with input j's
// sources substituted. Static (non-DOF) modes never read activation
// values, so the whole batch costs one simulation plus replication;
// DOF modes share plans, planes, and scratch across inputs and pay
// only the per-input phase-1/2 work — both sub-linear in the batch
// size against independent sweeps. cfg.Progress reports each layer
// once, with input 0's result.
func SimulateNetworkBatchContext(ctx context.Context, layers []Layer, cfg Config, batch []BatchInput) ([]NetworkResult, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("core: SimulateNetworkBatchContext needs at least one batch input")
	}
	for j := range batch {
		if batch[j].Sources != nil && len(batch[j].Sources) != len(layers) {
			return nil, fmt.Errorf("core: batch input %d has %d sources, network has %d layers",
				j, len(batch[j].Sources), len(layers))
		}
	}
	n, nl := len(batch), len(layers)
	pool := cfg.pool()
	results := make([]LayerResult, n*nl) // [input·layers + layer]
	layerErrs := make([]error, nl)
	var progressMu sync.Mutex
	done := 0
	err := pool.For(ctx, nl, func(start, end int) {
		for i := start; i < end; i++ {
			srcs := make([]ActivationSource, n)
			for j := range batch {
				if batch[j].Sources != nil {
					srcs[j] = batch[j].Sources[i]
				}
			}
			lrs, err := simulateLayer(ctx, layers[i], cfg, pool, srcs)
			if err != nil {
				layerErrs[i] = err
				return
			}
			for j, lr := range lrs {
				lr.Energy.Interconnect = cfg.NoC.LayerHandoffEnergy(layers[i].OutputBits)
				results[j*nl+i] = lr
			}
			if cfg.Progress != nil {
				progressMu.Lock()
				done++
				cfg.Progress(ProgressEvent{Index: i, Count: nl, Done: done, Layer: results[i]})
				progressMu.Unlock()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for i, lerr := range layerErrs {
		if lerr != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, layers[i].Name, lerr)
		}
	}
	publishPoolMetrics(cfg.Metrics, pool)
	out := make([]NetworkResult, n)
	for j := range out {
		out[j] = reduceNetwork(layers, results[j*nl:(j+1)*nl])
	}
	return out, nil
}

// reduceNetwork folds per-layer results into the network total: layers
// execute sequentially on the modelled hardware, except that a run of
// layers sharing a non-empty ParallelGroup executes concurrently —
// latency is the slowest member's, energy sums.
func reduceNetwork(layers []Layer, results []LayerResult) NetworkResult {
	var out NetworkResult
	for i := 0; i < len(layers); {
		j := i + 1
		if g := layers[i].ParallelGroup; g != "" {
			for j < len(layers) && layers[j].ParallelGroup == g {
				j++
			}
		}
		var maxCycles int64
		var maxTime float64
		for k := i; k < j; k++ {
			lr := results[k]
			out.Layers = append(out.Layers, lr)
			out.Energy.Add(lr.Energy)
			if lr.Cycles > maxCycles {
				maxCycles, maxTime = lr.Cycles, lr.Time
			}
		}
		out.Cycles += maxCycles
		out.Time += maxTime
		i = j
	}
	return out
}

// SimulateLayerContext runs one layer under cfg, sharding its window
// and tile loops over the worker pool.
func SimulateLayerContext(ctx context.Context, l Layer, cfg Config) (LayerResult, error) {
	lrs, err := simulateLayer(ctx, l, cfg, cfg.pool(), []ActivationSource{nil})
	if err != nil {
		return LayerResult{}, err
	}
	return lrs[0], nil
}

// tilePlan is one (rb, cb) tile's per-run execution state: static
// OU/wordline counts, eDRAM fetch shape, and — for row-compressing
// schemes — the cached word-plane plans whose retained-row masks the
// DOF activation masks intersect with (nil under OCC).
type tilePlan struct {
	plans       *compress.TilePlans
	staticOUs   int64 // per-slice OU count without DOF
	staticWL    int64 // per-slice driven wordlines without DOF
	fetchGroups int   // eDRAM fetches per batch
	fetchBits   int   // bits per fetch
}

// batchWork is one (window, tile) batch's work — OU slots and driven
// wordlines over all slices — written to a disjoint slot by phase 1.
type batchWork struct{ ous, wl int64 }

// validateModeLayer checks the mode against the layer's prepared state.
// The rules derive from scheme traits, not a per-mode switch: a scheme
// that cannot compose with DOF (OCC — Fig. 10: currents of different
// outputs would accumulate on one bitline) rejects any DOF pairing, and
// OCC additionally needs its column-compressed companion structure.
func validateModeLayer(l Layer, cfg Config) error {
	if cfg.Mode.DOF && !cfg.Mode.Scheme.ComposesWithDOF() {
		return fmt.Errorf(
			"core: layer %q: scheme %v cannot combine with DOF (paper Fig. 10)", l.Name, cfg.Mode.Scheme)
	}
	if cfg.Mode.Scheme == compress.OCC && l.OCC == nil {
		return fmt.Errorf(
			"core: layer %q: OCC mode needs Layer.OCC (compress.BuildOCC)", l.Name)
	}
	return nil
}

// simulateLayer is the layer engine. It runs the layer once per
// activation source (sources[j] nil means the layer's own Acts; a single
// run passes one nil) and returns the per-input results in order. One
// prelude — validation, scratch, plans and, in a DOF mode, the
// mask-plane lookup — serves every input, and the run proceeds in three
// phases so that parallel execution stays bit-identical to serial:
//
//  1. per-window batch work — OU slots and driven wordlines per tile —
//     computed by workers over the flattened (input, window) space
//     (pure functions of the window, written to disjoint slots);
//  2. per-(input, tile) pipeline schedules — each tracker consumes its
//     batches in window order, workers over disjoint tile shards;
//  3. a serial reduction per input over tiles in fixed (row, column)
//     order, the same float-accumulation order as the serial simulator.
//
// Only DOF modes read activation values: a static mode is simulated
// once and its result replicated to every input. Configuration problems
// (invalid quantization, a structure built for a different geometry,
// OCC misuse, a substituted source whose window count differs from the
// layer's) are reported as errors, not panics, so sweep servers survive
// a bad request.
func simulateLayer(ctx context.Context, l Layer, cfg Config, pool *parallel.Pool, sources []ActivationSource) ([]LayerResult, error) {
	if err := cfg.Quant.Validate(); err != nil {
		return nil, err
	}
	lay := l.Struct.Layout
	g := cfg.Geometry
	if lay.SWL != g.SWL || lay.SBL != g.SBL || lay.XbarRows != g.XbarRows {
		return nil, fmt.Errorf(
			"core: layer %q: structure was built with a different geometry (layout %d/%d/%d, config %d/%d/%d)",
			l.Name, lay.XbarRows, lay.SWL, lay.SBL, g.XbarRows, g.SWL, g.SBL)
	}
	if err := validateModeLayer(l, cfg); err != nil {
		return nil, err
	}
	windows := l.Acts.Windows()
	for j, src := range sources {
		if src != nil && src.Windows() != windows {
			return nil, fmt.Errorf("core: layer %q: batch input %d has %d windows, the layer has %d",
				l.Name, j, src.Windows(), windows)
		}
	}
	sampled := SampledWindows(windows, cfg.MaxWindows)
	spi := cfg.Quant.SlicesPerInput()
	nTiles := lay.RowBlocks * lay.ColBlocks
	// msh is this layer call's private metrics shard (nil when the run
	// is unmetered — every cell operation on the nil chain is a no-op).
	// Layers overlap on the pool, so shard-per-layer keeps the serial
	// phase-3 writes race-free without locks. The shard is folded into
	// the registry when the layer returns.
	msh := cfg.Metrics.Shard()
	defer cfg.Metrics.Release(msh)

	ls := getLayerScratch(arenaMetrics{
		gets: msh.Counter(`sre_core_arena_gets_total{arena="layer"}`),
		news: msh.Counter(`sre_core_arena_news_total{arena="layer"}`),
	})
	defer ls.release()
	plans, err := layerPlans(ctx, l, cfg, ls, msh)
	if err != nil {
		return nil, err
	}

	// Phase 1: per-window batch work over the flattened (input, window)
	// space. Static modes issue the same per-tile batch every window, so
	// they skip it (work stays nil) and record their fixed occupancy from
	// the plans instead.
	n := 1
	var work []batchWork // indexed [(input·sampled + window)·nTiles + tile]
	if cfg.Mode.DOF {
		// The layer's cached slice-mask plane (maskplane.go) serves the
		// inputs bound to its own source, so it is looked up only when
		// one is; substituted sources, and every input when the plane is
		// past its bound, build each window's masks in phase 1's scratch.
		own := slices.ContainsFunc(sources, func(src ActivationSource) bool {
			return src == nil || src == l.Acts
		})
		var mp *maskPlane
		if own && l.Masks != nil {
			mp = l.Masks.maskPlane(l.Acts, lay, sampled, windows, cfg.Quant.DACBits, spi, maskCacheMetrics{
				hits:   msh.Counter("sre_core_mask_cache_hits_total"),
				misses: msh.Counter("sre_core_mask_cache_misses_total"),
				builds: msh.Counter("sre_core_mask_cache_builds_total"),
				bytes:  msh.Counter("sre_core_mask_cache_bytes_total"),
			})
		}
		n = len(sources)
		inputs := make([]p1Input, n)
		for j, src := range sources {
			inputs[j] = p1Input{mp: mp, acts: l.Acts}
			if src != nil && src != l.Acts {
				inputs[j] = p1Input{acts: src}
			}
		}
		// Chunk claiming absorbs the skew of activation-dependent
		// window costs. Result slots stay disjoint, so bit-identity is
		// unaffected.
		total := n * sampled
		work = ls.workSlots(total * nTiles)
		err = pool.For(ctx, total, kernelPhase1(ctx, l, cfg, plans, work, sampled, windows, inputs, msh))
		if err != nil {
			return nil, err
		}
	} else if msh != nil {
		occ := msh.Histogram(occName(cfg.Mode), occupancyBounds)
		for rb := range plans {
			for cb := range plans[rb] {
				recordStaticOccupancy(occ, &plans[rb][cb], g.SWL, int64(spi)*int64(sampled))
			}
		}
	}

	out, err := schedule(ctx, l, cfg, pool, plans, work, n, windows, sampled, ls, msh)
	if err != nil {
		return nil, err
	}
	for len(out) < len(sources) {
		out = append(out, out[0])
	}
	return out, nil
}

// layerPlans resolves a run's per-tile plans into ls's plan grid. The
// row-compression plans (and their word-plane flattening) come from the
// Structure's (scheme, indexBits) memo, so RunAll's modes and repeated
// runs share one build; only the mode-dependent fetch shape is derived
// here. OCC keeps every row mapped and takes its per-slice OU count
// from the per-band retained columns.
func layerPlans(ctx context.Context, l Layer, cfg Config, ls *layerScratch, msh *metrics.Shard) ([][]tilePlan, error) {
	lay := l.Struct.Layout
	var ps *compress.PlanSet
	if cfg.Mode.Scheme != compress.OCC {
		ps = l.Struct.PlanSet(cfg.Mode.Scheme, cfg.IndexBits, compress.CacheMetrics{
			Hits:   msh.Counter("sre_compress_plan_cache_hits_total"),
			Misses: msh.Counter("sre_compress_plan_cache_misses_total"),
			Builds: msh.Counter("sre_compress_plan_cache_builds_total"),
		})
	}
	plans := ls.tilePlans(lay.RowBlocks, lay.ColBlocks)
	for rb := 0; rb < lay.RowBlocks; rb++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for cb := 0; cb < lay.ColBlocks; cb++ {
			tp := &plans[rb][cb]
			tp.fetchBits = lay.TileRows(rb) * cfg.Quant.ABits
			if ps == nil {
				tp.staticOUs = int64(l.OCC.OUsPerTileSlice(rb, cb))
				tp.staticWL = tp.staticOUs * int64(cfg.Geometry.SWL)
				tp.fetchGroups = 1 // input order unchanged
				continue
			}
			tp.plans = ps.Tile(rb, cb)
			tp.staticOUs = tp.plans.OUs
			tp.staticWL = tp.plans.RowCount
			// Row-reordering schemes issue one batch fetch per column
			// group (paper §4.1, the Fig. 18 eDRAM effect);
			// input-order-preserving modes fetch the batch once, and
			// WSS skips the fetch of groups whose weight bit slice is
			// all-zero. Each fetch reads the full batch's buffer lines
			// — gather happens at the IR, not inside the eDRAM.
			tp.fetchGroups = cfg.Mode.Scheme.FetchGroups(tp.plans.Groups, tp.plans.NonEmptyGroups)
		}
	}
	return plans, nil
}

// schedule runs phases 2 and 3 of the layer engine for n inputs. work
// holds every (input, window, tile) batch phase 1 wrote; nil means each
// window issues the tile's static batch (staticOUs, staticWL per
// slice). Each (input, tile) tracker consumes its batches in window
// order — the same order (and, for the float fetch-energy sum, the
// same sequence of additions) as the serial simulator — and each input
// is then reduced on its own accumulator stripe.
func schedule(ctx context.Context, l Layer, cfg Config, pool *parallel.Pool, plans [][]tilePlan,
	work []batchWork, n, windows, sampled int, ls *layerScratch, msh *metrics.Shard) ([]LayerResult, error) {
	lay := l.Struct.Layout
	nTiles := lay.RowBlocks * lay.ColBlocks
	spi := int64(cfg.Quant.SlicesPerInput())
	cycleTime := cfg.CycleTime()
	accs := ls.tileAccs(n * nTiles)
	err := pool.For(ctx, nTiles, func(start, end int) {
		for t := start; t < end; t++ {
			if ctx.Err() != nil {
				return
			}
			tp := &plans[t/lay.ColBlocks][t%lay.ColBlocks]
			var fetchCycles int64
			if cfg.Buffer.Banks > 0 {
				// An explicit buffer model may not sustain the §5.3
				// one-cycle fetch; charge the fetch stage accordingly.
				fetchCycles = int64(1 + cfg.Buffer.StallCycles(tp.fetchBits*tp.fetchGroups, cycleTime))
			}
			fetchE := float64(tp.fetchGroups) * cfg.Energy.FetchEnergy(tp.fetchBits)
			bw := batchWork{tp.staticOUs * spi, tp.staticWL * spi}
			for j := 0; j < n; j++ {
				acc := &accs[j*nTiles+t]
				tracker := pipeline.Tracker{FetchCycles: fetchCycles}
				for wi := 0; wi < sampled; wi++ {
					if work != nil {
						bw = work[(j*sampled+wi)*nTiles+t]
					}
					tracker.Batch(bw.ous)
					acc.ouEvents += bw.ous
					acc.drivenWL += bw.wl
					acc.fetches += int64(tp.fetchGroups)
					acc.fetchE += fetchE
				}
				acc.total, acc.stalls = tracker.Finish()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]LayerResult, n)
	for j := range out {
		out[j] = phase3Reduce(l, cfg, accs[j*nTiles:(j+1)*nTiles], windows, sampled, msh)
	}
	return out, nil
}

// phase3Reduce is the layer engine's serial phase-3 reduction over one
// input's tile accumulators, in fixed (row, column) tile order — the
// same float-accumulation order as the serial simulator. Latency is
// the slowest tile's scaled schedule; energy sums over tiles.
func phase3Reduce(l Layer, cfg Config, accs []tileAcc, windows, sampled int, msh *metrics.Shard) LayerResult {
	g := cfg.Geometry
	adcBits := cfg.ADCBits()
	cycleTime := cfg.CycleTime()
	eCfg := cfg.Energy
	scale := float64(windows) / float64(sampled)
	reorders := cfg.Mode.Scheme != compress.Baseline
	res := LayerResult{Name: l.Name, Windows: windows, Sampled: sampled}
	ouBase := eCfg.OUBaseEnergy(g.SBL, adcBits)
	wlE := eCfg.WordlineEnergy(adcBits)
	var maxCycles, maxStalls, scaledWL int64
	for t := range accs {
		acc := &accs[t]
		scaledCycles := int64(math.Round(float64(acc.total) * scale))
		if scaledCycles > maxCycles {
			maxCycles, maxStalls = scaledCycles, int64(math.Round(float64(acc.stalls)*scale))
		}
		res.OUEvents += int64(math.Round(float64(acc.ouEvents) * scale))
		res.Fetches += int64(math.Round(float64(acc.fetches) * scale))
		res.Energy.Compute += scale * (float64(acc.ouEvents)*ouBase + float64(acc.drivenWL)*wlE)
		res.Energy.EDRAM += scale * acc.fetchE
		tileTime := float64(acc.total) * scale * cycleTime
		res.Energy.Index += eCfg.IndexingEnergy(tileTime, reorders, cfg.Mode.DOF)
		res.Energy.Leakage += eCfg.LeakageEnergy(tileTime)
		if msh != nil {
			scaledWL += int64(math.Round(float64(acc.drivenWL) * scale))
		}
	}
	res.Cycles = maxCycles
	res.Stalls = maxStalls
	res.Time = float64(maxCycles) * cycleTime
	if msh != nil {
		// Per-layer totals, scaled by the window-sampling factor exactly
		// like the LayerResult fields, so the counters reconcile with the
		// reported Cycles/OUEvents. Occupancy histograms, by contrast,
		// hold raw per-sampled-window observations (unscaled).
		mode := cfg.Mode.String()
		msh.Counter(fmt.Sprintf("sre_core_layers_total{mode=%q}", mode)).Inc()
		msh.Counter(fmt.Sprintf("sre_core_windows_total{mode=%q}", mode)).Add(int64(windows))
		msh.Counter(fmt.Sprintf("sre_core_windows_simulated_total{mode=%q}", mode)).Add(int64(sampled))
		msh.Counter(fmt.Sprintf("sre_core_windows_skipped_total{mode=%q}", mode)).Add(int64(windows - sampled))
		msh.Counter(fmt.Sprintf("sre_core_ou_activations_total{mode=%q}", mode)).Add(res.OUEvents)
		msh.Counter(fmt.Sprintf("sre_core_driven_wordlines_total{mode=%q}", mode)).Add(scaledWL)
		msh.Counter(fmt.Sprintf("sre_core_fetches_total{mode=%q}", mode)).Add(res.Fetches)
		msh.Counter(fmt.Sprintf("sre_core_layer_cycles_total{mode=%q}", mode)).Add(res.Cycles)
		msh.Counter(fmt.Sprintf("sre_core_stall_cycles_total{mode=%q}", mode)).Add(res.Stalls)
	}
	return res
}

// p1Input is one activation input's phase-1 view: its cached
// slice-mask plane (mp), else its source (acts), read per window. A
// run passes one per input.
type p1Input struct {
	mp   *maskPlane
	acts ActivationSource
}

// kernelPhase1 returns the word-plane phase-1 chunk body over the
// flattened (input, window) index space (idx = input·sampled+window;
// a single run passes one input, so idx is the window index). Each
// window's activation bit-slice masks come from a mask plane: the
// input's cached one, or the chunk's one-window scratch plane, built
// from a source read (maskPlane.build). Phase 1 then makes one fused
// bitset.TileOUs call per (window, tile), which sums the OUs and
// driven wordlines over all slices and column groups at once. A metered run (msh non-nil) also has that call tally the
// fill classes of the partial OUs, and records the chunk's occupancy
// histogram from the tally once per chunk. Baseline-scheme plans are
// virtualized (every group drives the slice's rows), so that scheme
// takes per-slice arithmetic instead. Scratch comes from the phase-1
// arena (checked out per chunk) and every result lands in a disjoint
// work slot, so the phase stays bit-identical at any worker count.
func kernelPhase1(ctx context.Context, l Layer, cfg Config, plans [][]tilePlan,
	work []batchWork, sampled, windows int, inputs []p1Input, msh *metrics.Shard) func(start, end int) {
	lay := l.Struct.Layout
	g := cfg.Geometry
	spi := cfg.Quant.SlicesPerInput()
	nTiles := lay.RowBlocks * lay.ColBlocks
	maxWords := bitset.Words64(lay.XbarRows)
	baseline := cfg.Mode.Scheme == compress.Baseline
	am := arenaMetrics{
		gets: msh.Counter(`sre_core_arena_gets_total{arena="phase1"}`),
		news: msh.Counter(`sre_core_arena_news_total{arena="phase1"}`),
	}
	// The occupancy histogram is nil when unmetered: no fill classes are
	// then tallied and the name is never formatted.
	var occ *metrics.Histogram
	if msh != nil {
		occ = msh.Histogram(occName(cfg.Mode), occupancyBounds)
	}
	return func(start, end int) {
		scr := getP1Scratch(lay, spi, am)
		defer scr.release()
		var tally occTally
		var part *[9]int64
		if occ != nil {
			part = &tally.part
			defer tally.flush(occ, g.SWL)
		}
		ouTab := scr.ouTab
		for idx := start; idx < end; idx++ {
			if ctx.Err() != nil {
				return
			}
			ji, wi := idx/sampled, idx%sampled
			in := &inputs[ji]
			mp, slot := in.mp, wi
			if mp == nil {
				in.acts.WindowCodes(wi*windows/sampled, scr.codes)
				mp, slot = scr.mp, 0
				mp.build(slot, scr.codes, lay, cfg.Quant.DACBits, scr.heads)
			}
			for rb := range plans {
				// The row block's slice masks, slice s at s·maxWords. ne,
				// its non-empty bitmap, names every slice: quant.Validate
				// bounds spi at 32.
				mbase := (slot*lay.RowBlocks + rb) * spi
				ne := mp.nonEmpty[slot*lay.RowBlocks+rb]
				block := mp.words[mbase*maxWords : (mbase+spi)*maxWords]
				// A Baseline-scheme group drives every row of the slice,
				// so each non-empty slice's popcount serves every column
				// block of the row block.
				var sliceNZ [32]int32
				if baseline {
					w := bitset.Words64(lay.TileRows(rb))
					for sl := ne; sl != 0; sl &= sl - 1 {
						s := bits.TrailingZeros64(sl)
						sliceNZ[s] = int32(bitset.CountWords(block[s*maxWords : s*maxWords+w]))
					}
				}
				for cb := range plans[rb] {
					tp := &plans[rb][cb]
					var ous, wl int64
					if baseline {
						for sl := ne; sl != 0; sl &= sl - 1 {
							nz := int(sliceNZ[bits.TrailingZeros64(sl)])
							n := int64(tp.plans.Groups)
							ous += int64(ouTab[nz]) * n
							wl += int64(nz) * n
							if part != nil {
								if r := nz % g.SWL; r > 0 {
									part[occClass(r)] += n
								}
							}
						}
					} else {
						ous, wl = bitset.TileOUs(block, maxWords, ne, tp.plans.Plane, tp.plans.Groups, g.SWL, part)
					}
					work[idx*nTiles+rb*lay.ColBlocks+cb] = batchWork{ous, wl}
					tally.ous += ous
					tally.wl += wl
				}
			}
		}
	}
}
