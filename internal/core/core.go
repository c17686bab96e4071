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
// SimulateNetworkContext adds cancellation and per-layer progress
// reporting on top of the same engine.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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

	// NoCodeCache disables the layer-level window-code plane cache
	// (Layer.Codes): every mode goes back to reading the
	// ActivationSource per window, as the pre-cache simulator did.
	// Results are bit-identical either way; the switch exists for
	// memory-constrained runs and as the golden comparison baseline.
	NoCodeCache bool

	// Workers is the simulation worker-pool width (0 = GOMAXPROCS).
	// Results are bit-identical at every width.
	Workers int
	// Pool, when non-nil, is the shared worker pool to draw from
	// (overrides Workers); sweeps use it to bound total concurrency
	// across concurrent SimulateNetwork calls.
	Pool *parallel.Pool
	// Progress, when non-nil, is called after each layer completes
	// during SimulateNetworkContext. Calls are serialized but may
	// arrive out of layer order when layers overlap.
	Progress func(ProgressEvent)

	// Metrics, when non-nil, receives run observability: OU
	// activations, wordline-occupancy histograms, window sampling,
	// plan-cache traffic, and pool utilization. Hot loops write to
	// per-layer shards; nothing the registry records feeds back
	// into the simulation, so Cycles/Energy stay bit-identical to an
	// unmetered run.
	Metrics *metrics.Registry

	// ScalarReference, when true, routes plan building and the DOF
	// inner loop through the pre-kernel scalar implementation (per-call
	// plan rebuilds, per-group bitset intersections). It exists as the
	// golden reference the word-plane kernel path is proven
	// bit-identical against, and as the before/after benchmark baseline
	// — never as a production configuration.
	ScalarReference bool
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

// flushOccupancy records one phase-1 chunk's occupancy tally
// (tally[nz] = column groups that drove nz rows) into occ and zeroes
// it. Phase 1 bumps a plain tally slot per group and flushes once per
// chunk, which keeps the histogram's atomic adds out of the per-group
// loop; bucket counts, sum and count are integer sums, so the histogram
// ends up exactly as if every group had been observed on its own.
func flushOccupancy(occ *metrics.Histogram, tally []int64, swl int) {
	for nz, n := range tally {
		if n != 0 {
			observeOccupancy(occ, nz, swl, n)
			tally[nz] = 0
		}
	}
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
			// Baseline plans are virtualized (no per-group row lists):
			// every group drives all TileRows rows, so batching the
			// Groups identical observations is additive-identical.
			observeOccupancy(occ, tp.plans.TileRows, swl, reps*int64(tp.plans.Groups))
			return
		}
		for _, rows := range tp.plans.GroupRows {
			observeOccupancy(occ, len(rows), swl, reps)
		}
	case tp.groupBits != nil:
		for _, gb := range tp.groupBits {
			observeOccupancy(occ, gb.Count(), swl, reps)
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
	sh.Gauge("sre_parallel_shards_inline").Set(st.ShardsInline.Load())
	sh.Gauge("sre_parallel_shards_spawned").Set(st.ShardsSpawned.Load())
	sh.Gauge("sre_parallel_spawn_wait_ns").Set(st.SpawnWaitNanos.Load())
	sh.Gauge("sre_parallel_dyn_for_calls").Set(st.DynCalls.Load())
	sh.Gauge("sre_parallel_dyn_chunks").Set(st.DynChunks.Load())
	sh.Gauge("sre_parallel_dyn_workers").Set(st.DynWorkers.Load())
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
	// quantized activation codes.
	WindowCodes(w int, dst []uint32)
}

// SourceCloner is implemented by ActivationSources that can hand each
// parallel worker an independent view of the same activations (sharing
// read-only data, duplicating scratch state). Sources that do not
// implement it are read by a single worker at a time.
type SourceCloner interface {
	CloneSource() ActivationSource
}

// cloneSource returns a worker-private view of src, or src itself when
// it does not support cloning.
func cloneSource(src ActivationSource) ActivationSource {
	if c, ok := src.(SourceCloner); ok {
		return c.CloneSource()
	}
	return src
}

// TensorSource adapts a real traced activation tensor (CHW) to an
// ActivationSource via im2col, quantizing with a single per-layer scale.
type TensorSource struct {
	X              *tensor.Tensor
	K, Stride, Pad int
	ABits          int
	scale          float64
	wout, hout     int
	buf            []float32
}

// NewTensorSource builds a source for a conv layer's traced input. For
// FC layers pass K=0 (the whole tensor is the single window).
func NewTensorSource(x *tensor.Tensor, k, stride, pad, abits int) *TensorSource {
	ts := &TensorSource{X: x, K: k, Stride: stride, Pad: pad, ABits: abits}
	ts.scale = quant.ScaleFor(float64(x.MaxAbs()), abits)
	if k > 0 {
		ts.hout = tensor.ConvOutputDim(x.Dim(1), k, stride, pad)
		ts.wout = tensor.ConvOutputDim(x.Dim(2), k, stride, pad)
		ts.buf = make([]float32, x.Dim(0)*k*k)
	}
	return ts
}

// CloneSource implements SourceCloner: the clone shares the (read-only)
// tensor but owns its im2col scratch buffer.
func (ts *TensorSource) CloneSource() ActivationSource {
	c := *ts
	if ts.buf != nil {
		c.buf = make([]float32, len(ts.buf))
	}
	return &c
}

func (ts *TensorSource) Windows() int {
	if ts.K == 0 {
		return 1
	}
	return ts.hout * ts.wout
}

func (ts *TensorSource) WindowCodes(w int, dst []uint32) {
	var vals []float32
	if ts.K == 0 {
		vals = ts.X.Data()
	} else {
		oy, ox := w/ts.wout, w%ts.wout
		tensor.Im2ColWindow(ts.X, ts.K, ts.Stride, ts.Pad, oy, ox, ts.buf)
		vals = ts.buf
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
	// Codes, when non-nil, caches the layer's sampled window codes so
	// RunAll's modes (and repeated SimulateLayer calls) share one
	// materialization instead of re-reading Acts per mode
	// (workload.Build attaches one to every layer). Config.NoCodeCache
	// opts a run out.
	Codes *CodePlanes
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

// SimulateNetwork runs every layer and sums latency (layers execute
// sequentially on the modelled hardware) and energy. It is the
// non-cancellable form of SimulateNetworkContext and panics on the
// configuration errors that form reports (invalid quantization,
// geometry mismatch, OCC misuse); long-running servers should call
// SimulateNetworkContext and handle the error.
func SimulateNetwork(layers []Layer, cfg Config) NetworkResult {
	out, err := SimulateNetworkContext(context.Background(), layers, cfg)
	if err != nil {
		panic(err)
	}
	return out
}

// SimulateNetworkContext runs every layer, overlapping independent
// layers on the worker pool, and sums modelled latency and energy. The
// modelled hardware still executes layers sequentially — overlap only
// accelerates the simulation itself, and the fixed-order reduction
// keeps results bit-identical to a single-worker run. Returns ctx.Err
// if the context is cancelled before the simulation completes, or the
// first (lowest-index) layer's configuration error otherwise.
func SimulateNetworkContext(ctx context.Context, layers []Layer, cfg Config) (NetworkResult, error) {
	pool := cfg.pool()
	results := make([]LayerResult, len(layers))
	layerErrs := make([]error, len(layers))
	var progressMu sync.Mutex
	done := 0
	err := pool.For(ctx, len(layers), func(start, end int) {
		for i := start; i < end; i++ {
			lr, err := simulateLayer(ctx, layers[i], cfg, pool)
			if err != nil {
				layerErrs[i] = err
				return
			}
			lr.Energy.Interconnect = cfg.NoC.LayerHandoffEnergy(layers[i].OutputBits)
			results[i] = lr
			if cfg.Progress != nil {
				progressMu.Lock()
				done++
				cfg.Progress(ProgressEvent{Index: i, Count: len(layers), Done: done, Layer: lr})
				progressMu.Unlock()
			}
		}
	})
	if err != nil {
		return NetworkResult{}, err
	}
	for i, lerr := range layerErrs {
		if lerr != nil {
			return NetworkResult{}, fmt.Errorf("layer %d (%s): %w", i, layers[i].Name, lerr)
		}
	}
	publishPoolMetrics(cfg.Metrics, pool)
	return reduceNetwork(layers, results), nil
}

// reduceNetwork folds per-layer results into the network total: layers
// execute sequentially on the modelled hardware, except that a run of
// layers sharing a non-empty ParallelGroup executes concurrently —
// latency is the slowest member's, energy sums. Shared by the
// single-input and batched network simulations.
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

// SimulateLayer runs one layer under cfg. It panics on the
// configuration errors SimulateLayerContext reports.
func SimulateLayer(l Layer, cfg Config) LayerResult {
	lr, err := SimulateLayerContext(context.Background(), l, cfg)
	if err != nil {
		panic(err)
	}
	return lr
}

// SimulateLayerContext runs one layer under cfg, sharding its window
// and tile loops over the worker pool.
func SimulateLayerContext(ctx context.Context, l Layer, cfg Config) (LayerResult, error) {
	return simulateLayer(ctx, l, cfg, cfg.pool())
}

// tilePlan is one (rb, cb) tile's per-run execution state: static
// OU/wordline counts, eDRAM fetch shape, and — for DOF modes — the
// retained-row masks the activation masks intersect with, either as the
// cached word plane (kernel path) or as per-group bitsets (scalar
// reference path).
type tilePlan struct {
	plans       *compress.TilePlans // cached word-plane plans (kernel path)
	groupBits   []*bitset.Set       // scalar-reference per-group row masks
	staticOUs   int64               // per-slice OU count without DOF
	staticWL    int64               // per-slice driven wordlines without DOF
	fetchGroups int                 // eDRAM fetches per batch
	fetchBits   int                 // bits per fetch
}

// batchWork is one (window, tile) batch's DOF-dependent work, written
// to a disjoint slot by phase 1.
type batchWork struct{ ous, wl int64 }

// validateModeLayer checks the mode against the layer's prepared state.
// The rules derive from scheme traits, not a per-mode switch: a scheme
// that cannot compose with DOF (OCC — Fig. 10: currents of different
// outputs would accumulate on one bitline) rejects any DOF pairing, a
// scheme that plans over weight bit-slice planes (WSS) requires the
// structure to carry them, and OCC additionally needs its column-
// compressed companion structure.
func validateModeLayer(l Layer, cfg Config) error {
	if cfg.Mode.DOF && !cfg.Mode.Scheme.ComposesWithDOF() {
		return fmt.Errorf(
			"core: layer %q: scheme %v cannot combine with DOF (paper Fig. 10)", l.Name, cfg.Mode.Scheme)
	}
	if cfg.Mode.Scheme.RequiresSlicePlanes() && !l.Struct.HasSlicePlanes() {
		return fmt.Errorf(
			"core: layer %q: mode %v needs weight bit-slice planes (structure predates them or was decoded without slice planes)",
			l.Name, cfg.Mode)
	}
	if cfg.Mode.Scheme == compress.OCC && l.OCC == nil {
		return fmt.Errorf(
			"core: layer %q: OCC mode needs Layer.OCC (compress.BuildOCC)", l.Name)
	}
	return nil
}

// simulateLayer is the layer engine. It runs in three phases so that
// parallel execution stays bit-identical to serial:
//
//  1. per-window batch work — OU slots and driven wordlines per tile —
//     computed by workers over disjoint window shards (pure functions
//     of the window, written to disjoint slots);
//  2. per-tile pipeline schedules — each tile's tracker consumes its
//     batches in window order, workers over disjoint tile shards;
//  3. a serial reduction over tiles in fixed (row, column) order, the
//     same float-accumulation order as the serial simulator.
//
// Configuration problems (invalid quantization, a structure built for a
// different geometry, OCC misuse) are reported as errors, not panics,
// so sweep servers survive a bad request.
func simulateLayer(ctx context.Context, l Layer, cfg Config, pool *parallel.Pool) (LayerResult, error) {
	if err := cfg.Quant.Validate(); err != nil {
		return LayerResult{}, err
	}
	st := l.Struct
	lay := st.Layout
	g := cfg.Geometry
	if lay.SWL != g.SWL || lay.SBL != g.SBL || lay.XbarRows != g.XbarRows {
		return LayerResult{}, fmt.Errorf(
			"core: layer %q: structure was built with a different geometry (layout %d/%d/%d, config %d/%d/%d)",
			l.Name, lay.XbarRows, lay.SWL, lay.SBL, g.XbarRows, g.SWL, g.SBL)
	}
	cycleTime := cfg.CycleTime()
	eCfg := cfg.Energy
	// msh is this layer call's private metrics shard (nil when the run
	// is unmetered — every cell operation on the nil chain is a no-op).
	// Layers overlap on the pool, so shard-per-layer keeps the serial
	// phase-3 writes race-free without locks. The shard is folded into
	// the registry when the layer returns.
	msh := cfg.Metrics.Shard()
	defer cfg.Metrics.Release(msh)

	windows := l.Acts.Windows()
	sampled := SampledWindows(windows, cfg.MaxWindows)

	if err := validateModeLayer(l, cfg); err != nil {
		return LayerResult{}, err
	}

	// Resolve the layer's shared window-code plane. Every non-scalar
	// mode performs the lookup — not just the DOF modes that read the
	// codes — so the cache's hit/miss algebra is deterministic for a
	// fixed workload: misses == builds == distinct sampled counts, hits
	// == lookups − builds, regardless of mode order. The scalar
	// reference path keeps its historical per-call source reads.
	var plane []uint32
	if l.Codes != nil && !cfg.NoCodeCache && !cfg.ScalarReference {
		plane = l.Codes.plane(l.Acts, lay.Rows, sampled, windows, codeCacheMetrics{
			hits:   msh.Counter("sre_core_code_cache_hits_total"),
			misses: msh.Counter("sre_core_code_cache_misses_total"),
			builds: msh.Counter("sre_core_code_cache_builds_total"),
			bytes:  msh.Counter("sre_core_code_cache_bytes_total"),
		})
	}

	// Non-scalar paths run on a pooled scratch block (plan grid, DOF
	// work slots, tile accumulators); the scalar reference keeps fresh
	// allocations so the golden baseline's behavior is untouched.
	var ls *layerScratch
	if !cfg.ScalarReference {
		ls = getLayerScratch(arenaMetrics{
			gets: msh.Counter(`sre_core_arena_gets_total{arena="layer"}`),
			news: msh.Counter(`sre_core_arena_news_total{arena="layer"}`),
		})
		defer ls.release()
	}

	// Per-tile plans. The row-compression plans (and their word-plane
	// flattening) are memoized on the Structure per (scheme, indexBits),
	// so RunAll's modes and repeated SimulateLayer calls share one
	// build; only the mode-dependent fetch shape is derived here. The
	// scalar reference path instead rebuilds everything per call, as
	// the pre-kernel simulator did.
	var plans [][]tilePlan
	switch {
	case cfg.Mode.Scheme == compress.OCC:
		plans = ls.tilePlans(lay.RowBlocks, lay.ColBlocks)
		for rb := 0; rb < lay.RowBlocks; rb++ {
			tileRows := lay.TileRows(rb)
			for cb := 0; cb < lay.ColBlocks; cb++ {
				// Column compression keeps every row mapped; the OU count
				// per slice comes from the per-band retained columns.
				tp := &plans[rb][cb]
				tp.staticOUs = int64(l.OCC.OUsPerTileSlice(rb, cb))
				tp.staticWL = tp.staticOUs * int64(g.SWL)
				tp.fetchGroups = 1 // input order unchanged
				tp.fetchBits = tileRows * cfg.Quant.ABits
			}
		}
	case cfg.ScalarReference:
		var err error
		plans, err = scalarTilePlans(ctx, l, cfg)
		if err != nil {
			return LayerResult{}, err
		}
	default:
		var err error
		plans, err = kernelTilePlans(ctx, l, cfg, ls, msh)
		if err != nil {
			return LayerResult{}, err
		}
	}

	spi := cfg.Quant.SlicesPerInput()
	nTiles := lay.RowBlocks * lay.ColBlocks

	// Phase 1: per-window batch work, sharded over windows. Only DOF
	// modes inspect the activations; for the static modes every window
	// issues the same per-tile batch, so the phase is skipped entirely.
	var work []batchWork // indexed [wi*nTiles + rb*ColBlocks + cb]
	if cfg.Mode.DOF {
		// Resolve the derived slice-mask plane (maskplane.go): when the
		// code plane is cached, the per-window BuildSliceMasks sweep and
		// its popcounts are shared across DOF modes and repeated runs
		// the same way. nil (size bound, no code plane) falls back to
		// per-window mask building.
		var mp *maskPlane
		if plane != nil {
			mp = l.Codes.maskPlane(plane, lay, sampled, cfg.Quant.DACBits, spi, maskCacheMetrics{
				hits:   msh.Counter("sre_core_mask_cache_hits_total"),
				misses: msh.Counter("sre_core_mask_cache_misses_total"),
				builds: msh.Counter("sre_core_mask_cache_builds_total"),
				bytes:  msh.Counter("sre_core_mask_cache_bytes_total"),
			})
		}
		if ls != nil {
			work = ls.workSlots(sampled * nTiles)
		} else {
			work = make([]batchWork, sampled*nTiles)
		}
		var phase1 func(start, end int)
		if cfg.ScalarReference {
			phase1 = scalarPhase1(ctx, l, cfg, plans, work, sampled, windows, msh)
		} else {
			phase1 = kernelPhase1(ctx, l, cfg, plans, work, sampled, windows,
				[]p1Input{{plane: plane, mp: mp, acts: l.Acts}}, msh)
		}
		if plane != nil {
			// Cached codes need no source reads, so the window loop can
			// rebalance freely: dynamic chunked sharding absorbs the
			// skew of activation-dependent window costs. Result slots
			// stay disjoint, so bit-identity is unaffected.
			if err := pool.ForDynamic(ctx, sampled, parallel.ChunkFor(sampled, pool.Workers()), phase1); err != nil {
				return LayerResult{}, err
			}
		} else {
			winPool := pool
			if _, ok := l.Acts.(SourceCloner); !ok {
				// The source cannot give workers private views; read it
				// from a single shard (tiles still parallelize below).
				winPool = nil
			}
			if err := winPool.For(ctx, sampled, phase1); err != nil {
				return LayerResult{}, err
			}
		}
	}

	// Phase 2: per-tile pipeline schedules, sharded over tiles. Each
	// tile's tracker consumes its batches in window order — the same
	// order (and, for the float fetch-energy sum, the same sequence of
	// additions) as the serial simulator.
	var accs []tileAcc
	if ls != nil {
		accs = ls.tileAccs(nTiles)
	} else {
		accs = make([]tileAcc, nTiles)
	}
	err := pool.For(ctx, nTiles, func(start, end int) {
		for t := start; t < end; t++ {
			if ctx.Err() != nil {
				return
			}
			rb, cb := t/lay.ColBlocks, t%lay.ColBlocks
			tp := &plans[rb][cb]
			acc := &accs[t]
			var tracker pipeline.Tracker
			if cfg.Buffer.Banks > 0 {
				// An explicit buffer model may not sustain the §5.3
				// one-cycle fetch; charge the fetch stage accordingly.
				totalBits := tp.fetchBits * tp.fetchGroups
				tracker.FetchCycles = int64(1 + cfg.Buffer.StallCycles(totalBits, cycleTime))
			}
			staticOUs := tp.staticOUs * int64(spi)
			staticWL := tp.staticWL * int64(spi)
			fetchE := float64(tp.fetchGroups) * eCfg.FetchEnergy(tp.fetchBits)
			for wi := 0; wi < sampled; wi++ {
				batchOUs, batchWL := staticOUs, staticWL
				if cfg.Mode.DOF {
					bw := work[wi*nTiles+t]
					batchOUs, batchWL = bw.ous, bw.wl
				}
				tracker.Batch(batchOUs)
				acc.ouEvents += batchOUs
				acc.drivenWL += batchWL
				acc.fetches += int64(tp.fetchGroups)
				acc.fetchE += fetchE
			}
			acc.total, acc.stalls = tracker.Finish()
		}
	})
	if err != nil {
		return LayerResult{}, err
	}

	// Phase 3: serial reduction in fixed tile order — latency is the
	// slowest tile; energy sums over tiles.
	return phase3Reduce(l, cfg, plans, accs, windows, sampled, msh), nil
}

// kernelTilePlans resolves the memoized word-plane tile plans of a
// non-OCC, non-scalar run into ls's plan grid — the row-compression
// plans come from the Structure's (scheme, indexBits) memo; only the
// mode-dependent fetch shape is derived here. Shared by the
// single-input and batched layer engines.
func kernelTilePlans(ctx context.Context, l Layer, cfg Config, ls *layerScratch, msh *metrics.Shard) ([][]tilePlan, error) {
	lay := l.Struct.Layout
	ps := l.Struct.PlanSetMetered(cfg.Mode.Scheme, cfg.IndexBits, compress.CacheMetrics{
		Hits:   msh.Counter("sre_compress_plan_cache_hits_total"),
		Misses: msh.Counter("sre_compress_plan_cache_misses_total"),
		Builds: msh.Counter("sre_compress_plan_cache_builds_total"),
	})
	plans := ls.tilePlans(lay.RowBlocks, lay.ColBlocks)
	for rb := 0; rb < lay.RowBlocks; rb++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tileRows := lay.TileRows(rb)
		for cb := 0; cb < lay.ColBlocks; cb++ {
			tp := &plans[rb][cb]
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
			tp.fetchBits = tileRows * cfg.Quant.ABits
		}
	}
	return plans, nil
}

// phase3Reduce is the layer engine's serial phase-3 reduction over one
// input's tile accumulators, in fixed (row, column) tile order — the
// same float-accumulation order as the serial simulator. Latency is
// the slowest tile's scaled schedule; energy sums over tiles. Shared
// by the single-input and batched layer engines (a batched layer
// reduces each input's accumulator stripe independently, in input
// order, so every input sees exactly the single-run order).
func phase3Reduce(l Layer, cfg Config, plans [][]tilePlan, accs []tileAcc, windows, sampled int, msh *metrics.Shard) LayerResult {
	lay := l.Struct.Layout
	g := cfg.Geometry
	adcBits := cfg.ADCBits()
	cycleTime := cfg.CycleTime()
	eCfg := cfg.Energy
	spi := cfg.Quant.SlicesPerInput()
	scale := float64(windows) / float64(sampled)
	reorders := cfg.Mode.Scheme != compress.Baseline
	res := LayerResult{Name: l.Name, Windows: windows, Sampled: sampled}
	ouBase := eCfg.OUBaseEnergy(g.SBL, adcBits)
	wlE := eCfg.WordlineEnergy(adcBits)
	var maxCycles, maxStalls, scaledWL int64
	var staticOcc *metrics.Histogram
	if msh != nil && !cfg.Mode.DOF {
		// DOF occupancy is activation-dependent and recorded in phase 1;
		// static modes drive the same retained rows every slice, so the
		// histogram is derived once per tile from the plans here.
		staticOcc = msh.Histogram(occName(cfg.Mode), occupancyBounds)
	}
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
			if staticOcc != nil {
				rb, cb := t/lay.ColBlocks, t%lay.ColBlocks
				recordStaticOccupancy(staticOcc, &plans[rb][cb], g.SWL, int64(spi)*int64(sampled))
			}
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

// p1Input is one activation input's phase-1 view. Exactly one of the
// derivation tiers is used per window: the cached slice-mask plane
// (mp), the cached code plane (plane), or a per-worker clone of the
// source (acts). Single-input simulations pass one of these; batched
// multi-activation sweeps pass one per coalesced input.
type p1Input struct {
	plane []uint32
	mp    *maskPlane
	acts  ActivationSource
}

// kernelPhase1 returns the word-plane phase-1 shard body over the
// flattened (input, window) index space (idx = input·sampled+window;
// single-input runs pass one input, so idx degenerates to the window
// index). For each window it derives all activation bit-slice masks in
// one sweep (bitset.BuildSliceMasks) — or reads them straight from the
// input's cached mask plane — then counts every column group's
// retained-row intersection against the tile's cached word plane. An
// unmetered run makes one fused call per (window, tile)
// (bitset.TileOUs), which sums the OUs and driven wordlines over all
// slices and groups at once. A metered run (msh non-nil) needs each
// group's count for the occupancy histogram, so it keeps one
// bitset.CountAndPlanes pass per slice, tallies occupancy in the
// scratch and flushes the tally into msh once per chunk. The sums are
// integers, so both paths give identical results. Scratch comes from
// the phase-1 arena (checked out per shard or dynamic chunk) and every
// result lands in a disjoint work slot, so the phase stays
// bit-identical at any worker count.
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
	// The occupancy histogram is nil when unmetered: the tally block is
	// then skipped by one branch per group and the name never formatted.
	var occ *metrics.Histogram
	if msh != nil {
		occ = msh.Histogram(occName(cfg.Mode), occupancyBounds)
	}
	return func(start, end int) {
		scr := getP1Scratch(lay, spi, am)
		defer scr.release()
		tally := scr.occTally
		if occ != nil {
			defer flushOccupancy(occ, tally, g.SWL)
		}
		// Source clones are established lazily per input as the shard
		// crosses input boundaries (at most once per boundary per chunk).
		var acts ActivationSource
		actsInput := -1
		codes := scr.codes
		masks := scr.masks
		nonEmpty := scr.nonEmpty
		counts := scr.counts
		sliceNZ := scr.sliceNZ
		ouTab := scr.ouTab
		for idx := start; idx < end; idx++ {
			if ctx.Err() != nil {
				return
			}
			ji, wi := idx/sampled, idx%sampled
			in := &inputs[ji]
			mp := in.mp
			if mp == nil {
				// No cached masks: derive them from the codes (cached
				// plane or source read) into this worker's scratch.
				if in.plane != nil {
					codes = in.plane[wi*lay.Rows : (wi+1)*lay.Rows]
				} else {
					if actsInput != ji {
						acts, actsInput = cloneSource(in.acts), ji
					}
					codes = scr.codes
					acts.WindowCodes(wi*windows/sampled, codes)
				}
				for rb := 0; rb < lay.RowBlocks; rb++ {
					lo := rb * g.XbarRows
					hi := lo + lay.TileRows(rb)
					nonEmpty[rb] = bitset.BuildSliceMasks(codes[lo:hi], cfg.Quant.DACBits, masks[rb])
					if baseline {
						for s := 0; s < spi; s++ {
							nz := 0
							if nonEmpty[rb]&(1<<uint(s)) != 0 {
								nz = bitset.CountWords(masks[rb][s])
							}
							sliceNZ[rb*spi+s] = nz
						}
					}
				}
			}
			for rb := range plans {
				// The row block's slice masks: slice s at s·maxWords, the
				// layout of both the scratch and the cached plane. ne, its
				// non-empty bitmap, names every slice: quant.Validate
				// bounds spi at 32.
				ne, block := nonEmpty[rb], scr.backing[rb*spi*maxWords:(rb+1)*spi*maxWords]
				mbase, tw := 0, bitset.Words64(lay.TileRows(rb))
				if mp != nil {
					mbase = (wi*lay.RowBlocks + rb) * spi
					ne = mp.nonEmpty[wi*lay.RowBlocks+rb]
					block = mp.words[mbase*maxWords : (mbase+spi)*maxWords]
				}
				for cb := range plans[rb] {
					tp := &plans[rb][cb]
					slot := idx*nTiles + rb*lay.ColBlocks + cb
					if !baseline && occ == nil {
						ous, wl := bitset.TileOUs(block, maxWords, ne, tp.plans.Plane, tp.plans.Groups, g.SWL)
						work[slot] = batchWork{ous, wl}
						continue
					}
					var batchOUs, batchWL int64
					for sl := ne; sl != 0; sl &= sl - 1 {
						s := bits.TrailingZeros64(sl)
						if baseline {
							var nz int
							if mp != nil {
								nz = int(mp.sliceNZ[mbase+s])
							} else {
								nz = sliceNZ[rb*spi+s]
							}
							if nz == 0 {
								continue
							}
							batchOUs += int64(ouTab[nz]) * int64(tp.plans.Groups)
							batchWL += int64(nz) * int64(tp.plans.Groups)
							if occ != nil {
								tally[nz] += int64(tp.plans.Groups)
							}
							continue
						}
						// Metered: each group's count feeds the tally.
						cnt := counts[:tp.plans.Groups]
						bitset.CountAndPlanes(block[s*maxWords:s*maxWords+tw], tp.plans.Plane, cnt)
						for _, nz := range cnt {
							if nz == 0 {
								continue
							}
							batchOUs += int64(ouTab[nz])
							batchWL += int64(nz)
							tally[nz]++
						}
					}
					work[slot] = batchWork{batchOUs, batchWL}
				}
			}
		}
	}
}
