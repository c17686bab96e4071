// Batched multi-activation sweeps: simulate one network under one mode
// for several activation assignments at once, sharing everything that
// does not depend on the activation values — compression plans, code
// and mask planes, scratch arenas, and (for the static modes, which
// never read activation values at all) the entire simulation.
//
// The contract is bit-identity: result j of a batched run equals a
// plain SimulateNetworkContext over the same layers with input j's
// sources substituted. The batched DOF engine reuses the exact
// single-input kernels — kernelPhase1 over the flattened
// (input, window) index space, one pipeline tracker per (input, tile)
// consuming windows in order, and phase3Reduce per input in fixed tile
// order — so every input sees precisely the single-run arithmetic and
// float-accumulation order.
package core

import (
	"context"
	"fmt"

	"sre/internal/parallel"
	"sre/internal/pipeline"
)

// BatchInput is one coalesced activation assignment of a batched
// sweep. Sources[i], when non-nil, replaces layer i's activation
// source; a nil element — or a nil Sources slice — keeps the layer's
// own Acts. Substituted sources bypass the layer's code/mask plane
// caches (those hold the layer's own activations), so they are read
// per window exactly as an uncached single run would read them.
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
// size against independent sweeps. cfg.Progress is not invoked on the
// batched path (per-layer completion is not meaningful per input).
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
	n := len(batch)
	pool := cfg.pool()
	results := make([]LayerResult, len(layers)*n) // [layer*n + input]
	layerErrs := make([]error, len(layers))
	err := pool.For(ctx, len(layers), func(start, end int) {
		for i := start; i < end; i++ {
			srcs := make([]ActivationSource, n)
			for j := range batch {
				if batch[j].Sources != nil {
					srcs[j] = batch[j].Sources[i]
				}
			}
			lrs, err := simulateLayerBatch(ctx, layers[i], cfg, pool, srcs)
			if err != nil {
				layerErrs[i] = err
				return
			}
			for j, lr := range lrs {
				lr.Energy.Interconnect = cfg.NoC.LayerHandoffEnergy(layers[i].OutputBits)
				results[i*n+j] = lr
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
	perLayer := make([]LayerResult, len(layers))
	for j := 0; j < n; j++ {
		for i := range layers {
			perLayer[i] = results[i*n+j]
		}
		out[j] = reduceNetwork(layers, perLayer)
	}
	return out, nil
}

// simulateLayerBatch runs one layer once per activation source
// (sources[j] nil means the layer's own Acts) and returns the per-input
// results in order. See SimulateNetworkBatchContext for the sharing
// and bit-identity contract.
func simulateLayerBatch(ctx context.Context, l Layer, cfg Config, pool *parallel.Pool, sources []ActivationSource) ([]LayerResult, error) {
	n := len(sources)
	own := make([]bool, n)
	for j := range sources {
		if sources[j] == nil || sources[j] == l.Acts {
			sources[j], own[j] = l.Acts, true
		}
	}
	out := make([]LayerResult, n)

	// Static modes read the activations only through Windows(): one
	// simulation serves every input that agrees on the window count.
	if !cfg.Mode.DOF {
		base, err := simulateLayer(ctx, l, cfg, pool)
		if err != nil {
			return nil, err
		}
		for j := range sources {
			if own[j] || sources[j].Windows() == base.Windows {
				out[j] = base
				continue
			}
			lj := l
			lj.Acts, lj.Codes = sources[j], nil
			if out[j], err = simulateLayer(ctx, lj, cfg, pool); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// DOF under the scalar golden reference, or with inputs that
	// disagree on the window count (so the flattened index space would
	// not be rectangular), falls back to one independent simulation per
	// input — the semantics the batched path is proven against.
	windows := l.Acts.Windows()
	uniform := !cfg.ScalarReference
	for j := range sources {
		if sources[j].Windows() != windows {
			uniform = false
		}
	}
	if !uniform {
		for j := range sources {
			lj := l
			if !own[j] {
				lj.Acts, lj.Codes = sources[j], nil
			}
			var err error
			if out[j], err = simulateLayer(ctx, lj, cfg, pool); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// Batched DOF engine: one shared plan grid and one flattened
	// (input, window) phase 1, then per-(input, tile) schedules and a
	// per-input serial reduction.
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
	msh := cfg.Metrics.Shard()
	defer cfg.Metrics.Release(msh)
	sampled := SampledWindows(windows, cfg.MaxWindows)
	spi := cfg.Quant.SlicesPerInput()
	nTiles := lay.RowBlocks * lay.ColBlocks

	// The layer's cached code and mask planes serve the inputs bound to
	// its own source, exactly as a single run would resolve them.
	var plane []uint32
	var mp *maskPlane
	if l.Codes != nil && !cfg.NoCodeCache {
		plane = l.Codes.plane(l.Acts, lay.Rows, sampled, windows, codeCacheMetrics{
			hits:   msh.Counter("sre_core_code_cache_hits_total"),
			misses: msh.Counter("sre_core_code_cache_misses_total"),
			builds: msh.Counter("sre_core_code_cache_builds_total"),
			bytes:  msh.Counter("sre_core_code_cache_bytes_total"),
		})
		if plane != nil {
			mp = l.Codes.maskPlane(plane, lay, sampled, cfg.Quant.DACBits, spi, maskCacheMetrics{
				hits:   msh.Counter("sre_core_mask_cache_hits_total"),
				misses: msh.Counter("sre_core_mask_cache_misses_total"),
				builds: msh.Counter("sre_core_mask_cache_builds_total"),
				bytes:  msh.Counter("sre_core_mask_cache_bytes_total"),
			})
		}
	}

	ls := getLayerScratch(arenaMetrics{
		gets: msh.Counter(`sre_core_arena_gets_total{arena="layer"}`),
		news: msh.Counter(`sre_core_arena_news_total{arena="layer"}`),
	})
	defer ls.release()
	plans, err := kernelTilePlans(ctx, l, cfg, ls, msh)
	if err != nil {
		return nil, err
	}

	inputs := make([]p1Input, n)
	cached := true   // every input reads a materialized code plane
	clonable := true // every source-reading input can clone per worker
	for j := range sources {
		if own[j] {
			inputs[j] = p1Input{plane: plane, mp: mp, acts: l.Acts}
			if plane == nil {
				cached = false
				if _, ok := l.Acts.(SourceCloner); !ok {
					clonable = false
				}
			}
		} else {
			inputs[j] = p1Input{acts: sources[j]}
			cached = false
			if _, ok := sources[j].(SourceCloner); !ok {
				clonable = false
			}
		}
	}

	// Phase 1 over the flattened (input, window) space. The pool choice
	// mirrors the single-input engine: cached planes rebalance freely
	// under dynamic sharding; clonable sources shard statically; a
	// source that cannot clone is read from a single shard.
	work := ls.workSlots(n * sampled * nTiles)
	phase1 := kernelPhase1(ctx, l, cfg, plans, work, sampled, windows, inputs, msh)
	total := n * sampled
	switch {
	case cached:
		err = pool.ForDynamic(ctx, total, parallel.ChunkFor(total, pool.Workers()), phase1)
	case clonable:
		err = pool.For(ctx, total, phase1)
	default:
		var serial *parallel.Pool
		err = serial.For(ctx, total, phase1)
	}
	if err != nil {
		return nil, err
	}

	// Phase 2: per-(input, tile) pipeline schedules, sharded over
	// tiles. Each (input, tile) tracker consumes its windows in order —
	// the identical schedule a single run of that input would produce.
	accs := ls.tileAccs(n * nTiles)
	cycleTime := cfg.CycleTime()
	err = pool.For(ctx, nTiles, func(start, end int) {
		for t := start; t < end; t++ {
			if ctx.Err() != nil {
				return
			}
			rb, cb := t/lay.ColBlocks, t%lay.ColBlocks
			tp := &plans[rb][cb]
			var fetchCycles int64
			if cfg.Buffer.Banks > 0 {
				totalBits := tp.fetchBits * tp.fetchGroups
				fetchCycles = int64(1 + cfg.Buffer.StallCycles(totalBits, cycleTime))
			}
			fetchE := float64(tp.fetchGroups) * cfg.Energy.FetchEnergy(tp.fetchBits)
			for j := 0; j < n; j++ {
				acc := &accs[j*nTiles+t]
				var tracker pipeline.Tracker
				if cfg.Buffer.Banks > 0 {
					tracker.FetchCycles = fetchCycles
				}
				for wi := 0; wi < sampled; wi++ {
					bw := work[(j*sampled+wi)*nTiles+t]
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

	// Phase 3: per-input serial reductions over each input's
	// accumulator stripe, in input order.
	for j := 0; j < n; j++ {
		out[j] = phase3Reduce(l, cfg, plans, accs[j*nTiles:(j+1)*nTiles], windows, sampled, msh)
	}
	return out, nil
}
