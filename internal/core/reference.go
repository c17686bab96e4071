// Scalar reference implementation of the simulator's plan building and
// Dynamic-OU-Formation inner loop — the exact pre-kernel code path,
// kept so the word-plane kernels (kernelPhase1, compress.PlanSet) can
// be proven bit-identical against it (TestGoldenKernelMatchesScalar)
// and benchmarked against it (BenchmarkSimulateLayerScalar). Selected
// by Config.ScalarReference; never used in production runs.
package core

import (
	"context"

	"sre/internal/bitset"
	"sre/internal/compress"
	"sre/internal/metrics"
	"sre/internal/xmath"
)

// scalarTilePlans rebuilds every tile's retained-row plans and group
// bitsets from Structure.Plan on each call — the allocation-heavy
// behavior the per-structure plan cache replaced.
func scalarTilePlans(ctx context.Context, l Layer, cfg Config) ([][]tilePlan, error) {
	st := l.Struct
	lay := st.Layout
	g := cfg.Geometry
	plans := make([][]tilePlan, lay.RowBlocks)
	for rb := 0; rb < lay.RowBlocks; rb++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plans[rb] = make([]tilePlan, lay.ColBlocks)
		tileRows := lay.TileRows(rb)
		for cb := 0; cb < lay.ColBlocks; cb++ {
			tp := &plans[rb][cb]
			nGroups := lay.GroupsInTile(cb)
			tp.groupBits = make([]*bitset.Set, nGroups)
			nonEmpty := 0
			for gi := 0; gi < nGroups; gi++ {
				plan := st.Plan(cfg.Mode.Scheme, rb, cb, gi, cfg.IndexBits)
				bs := bitset.New(tileRows)
				for _, r := range plan.Rows {
					bs.Set(r)
				}
				tp.groupBits[gi] = bs
				tp.staticOUs += int64(xmath.CeilDiv(len(plan.Rows), g.SWL))
				tp.staticWL += int64(len(plan.Rows))
				if len(plan.Rows) > 0 {
					nonEmpty++
				}
			}
			tp.fetchGroups = cfg.Mode.Scheme.FetchGroups(nGroups, nonEmpty)
			tp.fetchBits = tileRows * cfg.Quant.ABits
		}
	}
	return plans, nil
}

// scalarPhase1 returns the pre-kernel phase-1 shard body: per-bit Set
// calls to build each slice mask and one CountAnd per (slice, group)
// over per-group *bitset.Set row masks.
func scalarPhase1(ctx context.Context, l Layer, cfg Config, plans [][]tilePlan,
	work []batchWork, sampled, windows int, msh *metrics.Shard) func(start, end int) {
	lay := l.Struct.Layout
	g := cfg.Geometry
	spi := cfg.Quant.SlicesPerInput()
	nTiles := lay.RowBlocks * lay.ColBlocks
	dacMask := uint32(1)<<uint(cfg.Quant.DACBits) - 1
	var occ *metrics.Histogram
	if msh != nil {
		occ = msh.Histogram(occName(cfg.Mode), occupancyBounds)
	}
	return func(start, end int) {
		acts := cloneSource(l.Acts)
		codes := make([]uint32, lay.Rows)
		// A per-nz occupancy tally, flushed once per shard through
		// observeOccupancy: a derivation of the histogram independent
		// of kernelPhase1's fill classes.
		var tally []int64
		if occ != nil {
			tally = make([]int64, g.XbarRows+1)
			defer flushOccupancy(occ, tally, g.SWL)
		}
		// Per-slice, per-row-block masks of non-zero input bits.
		masks := make([][]*bitset.Set, spi)
		for s := range masks {
			masks[s] = make([]*bitset.Set, lay.RowBlocks)
			for rb := range masks[s] {
				masks[s][rb] = bitset.New(lay.TileRows(rb))
			}
		}
		for wi := start; wi < end; wi++ {
			if ctx.Err() != nil {
				return
			}
			acts.WindowCodes(wi*windows/sampled, codes)
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
					tp := &plans[rb][cb]
					var batchOUs, batchWL int64
					for s := 0; s < spi; s++ {
						mask := masks[s][rb]
						if cfg.Mode.Scheme == compress.Baseline {
							nz := mask.Count()
							if nz == 0 {
								continue
							}
							c := int64(xmath.CeilDiv(nz, g.SWL))
							batchOUs += c * int64(len(tp.groupBits))
							batchWL += int64(nz) * int64(len(tp.groupBits))
							if occ != nil {
								tally[nz] += int64(len(tp.groupBits))
							}
						} else {
							for _, gb := range tp.groupBits {
								nz := mask.CountAnd(gb)
								if nz == 0 {
									continue
								}
								batchOUs += int64(xmath.CeilDiv(nz, g.SWL))
								batchWL += int64(nz)
								if occ != nil {
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
}

// flushOccupancy records a scalar phase-1 shard's occupancy tally
// (tally[nz] = column groups that drove nz rows) into occ and zeroes
// it. Bucket counts, sum and count are integer sums, so the histogram
// ends up exactly as if every group had been observed on its own.
func flushOccupancy(occ *metrics.Histogram, tally []int64, swl int) {
	for nz, n := range tally {
		if n != 0 {
			observeOccupancy(occ, nz, swl, n)
			tally[nz] = 0
		}
	}
}
