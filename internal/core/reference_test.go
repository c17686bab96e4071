// Scalar reference implementation of the simulator's plan building and
// phase 1 — the pre-kernel code path, kept so the word-plane kernels
// (kernelPhase1, compress.PlanSet) and the static modes' plan totals
// can be proven bit-identical against it (TestGoldenKernelMatchesScalar)
// and benchmarked against it (BenchmarkSimulateLayerScalar).
package core

import (
	"context"

	"sre/internal/bitset"
	"sre/internal/compress"
	"sre/internal/metrics"
	"sre/internal/xmath"
)

// scalarSimulateLayer runs one layer through the scalar reference:
// per-call plan rebuilds into per-group bitsets, then a serial scalar
// phase 1 that fills an explicit work slot for every (window, tile) —
// static modes too, which drive every retained row of every slice —
// and finally the engine's own phases 2 and 3 (schedule). OCC is not
// covered.
func scalarSimulateLayer(ctx context.Context, l Layer, cfg Config) (LayerResult, error) {
	lay := l.Struct.Layout
	windows := l.Acts.Windows()
	sampled := SampledWindows(windows, cfg.MaxWindows)
	msh := cfg.Metrics.Shard()
	defer cfg.Metrics.Release(msh)
	plans, groupBits, err := scalarTilePlans(ctx, l, cfg)
	if err != nil {
		return LayerResult{}, err
	}
	work := make([]batchWork, sampled*lay.RowBlocks*lay.ColBlocks)
	scalarPhase1(ctx, l, cfg, groupBits, work, sampled, windows, msh)
	res, err := schedule(ctx, l, cfg, cfg.pool(), plans, work, 1, windows, sampled, &layerScratch{}, msh)
	if err != nil {
		return LayerResult{}, err
	}
	return res[0], nil
}

// scalarTilePlans rebuilds every tile's retained-row plans from
// Structure.Plan on each call — the allocation-heavy behavior the
// per-structure plan cache replaced — and returns each tile's fetch
// shape with the per-group row bitsets, indexed [rb][cb][group]. The
// static OU and wordline totals are left zero: scalarPhase1 derives
// every batch from the bitsets.
func scalarTilePlans(ctx context.Context, l Layer, cfg Config) ([][]tilePlan, [][][]*bitset.Set, error) {
	st := l.Struct
	lay := st.Layout
	plans := make([][]tilePlan, lay.RowBlocks)
	groupBits := make([][][]*bitset.Set, lay.RowBlocks)
	for rb := 0; rb < lay.RowBlocks; rb++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		plans[rb] = make([]tilePlan, lay.ColBlocks)
		groupBits[rb] = make([][]*bitset.Set, lay.ColBlocks)
		tileRows := lay.TileRows(rb)
		for cb := 0; cb < lay.ColBlocks; cb++ {
			tp := &plans[rb][cb]
			nGroups := lay.GroupsInTile(cb)
			groupBits[rb][cb] = make([]*bitset.Set, nGroups)
			nonEmpty := 0
			for gi := 0; gi < nGroups; gi++ {
				plan := st.Plan(cfg.Mode.Scheme, rb, cb, gi, cfg.IndexBits)
				bs := bitset.New(tileRows)
				for _, r := range plan.Rows {
					bs.Set(r)
				}
				groupBits[rb][cb][gi] = bs
				if len(plan.Rows) > 0 {
					nonEmpty++
				}
			}
			tp.fetchGroups = cfg.Mode.Scheme.FetchGroups(nGroups, nonEmpty)
			tp.fetchBits = tileRows * cfg.Quant.ABits
		}
	}
	return plans, groupBits, nil
}

// scalarPhase1 is the pre-kernel phase 1: per-bit Set calls to build
// each slice mask and one CountAnd per (slice, group) over per-group
// *bitset.Set row masks. A static mode reads no activations: all-ones
// codes drive every row of every slice, so its slots hold the plans'
// own totals, summed per group. A metered run tallies occupancy per
// nz and records it through observeOccupancy (flushOccupancy) — a
// derivation independent of kernelPhase1's fill classes and of the
// engine's static-occupancy recorder.
func scalarPhase1(ctx context.Context, l Layer, cfg Config, groupBits [][][]*bitset.Set,
	work []batchWork, sampled, windows int, msh *metrics.Shard) {
	lay := l.Struct.Layout
	g := cfg.Geometry
	spi := cfg.Quant.SlicesPerInput()
	nTiles := lay.RowBlocks * lay.ColBlocks
	dacMask := uint32(1)<<uint(cfg.Quant.DACBits) - 1
	var tally []int64
	if msh != nil {
		tally = make([]int64, g.XbarRows+1)
		defer flushOccupancy(msh.Histogram(occName(cfg.Mode), occupancyBounds), tally, g.SWL)
	}
	codes := make([]uint32, lay.Rows)
	// Per-slice, per-row-block masks of non-zero input bits.
	masks := make([][]*bitset.Set, spi)
	for s := range masks {
		masks[s] = make([]*bitset.Set, lay.RowBlocks)
		for rb := range masks[s] {
			masks[s][rb] = bitset.New(lay.TileRows(rb))
		}
	}
	for wi := 0; wi < sampled; wi++ {
		if ctx.Err() != nil {
			return
		}
		if cfg.Mode.DOF {
			l.Acts.WindowCodes(wi*windows/sampled, codes)
		} else {
			for r := range codes {
				codes[r] = ^uint32(0)
			}
		}
		for s := 0; s < spi; s++ {
			for rb := range masks[s] {
				masks[s][rb].Reset()
			}
		}
		for r, code := range codes {
			if code == 0 {
				continue
			}
			rb, tr := r/g.XbarRows, r%g.XbarRows
			for s := 0; s < spi; s++ {
				if code>>uint(s*cfg.Quant.DACBits)&dacMask != 0 {
					masks[s][rb].Set(tr)
				}
			}
		}
		for rb := 0; rb < lay.RowBlocks; rb++ {
			for cb := 0; cb < lay.ColBlocks; cb++ {
				groups := groupBits[rb][cb]
				var batchOUs, batchWL int64
				for s := 0; s < spi; s++ {
					mask := masks[s][rb]
					if cfg.Mode.Scheme == compress.Baseline {
						nz := mask.Count()
						if nz == 0 {
							continue
						}
						c := int64(xmath.CeilDiv(nz, g.SWL))
						batchOUs += c * int64(len(groups))
						batchWL += int64(nz) * int64(len(groups))
						if tally != nil {
							tally[nz] += int64(len(groups))
						}
					} else {
						for _, gb := range groups {
							nz := mask.CountAnd(gb)
							if nz == 0 {
								continue
							}
							batchOUs += int64(xmath.CeilDiv(nz, g.SWL))
							batchWL += int64(nz)
							if tally != nil {
								tally[nz]++
							}
						}
					}
				}
				work[wi*nTiles+rb*lay.ColBlocks+cb] = batchWork{batchOUs, batchWL}
			}
		}
	}
}

// flushOccupancy records a scalar phase-1 occupancy tally (tally[nz] =
// column groups that drove nz rows) into occ. Bucket counts, sum and
// count are integer sums, so the histogram ends up exactly as if every
// group had been observed on its own.
func flushOccupancy(occ *metrics.Histogram, tally []int64, swl int) {
	for nz, n := range tally {
		if n != 0 {
			observeOccupancy(occ, nz, swl, n)
		}
	}
}
