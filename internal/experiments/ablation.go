package experiments

import (
	"context"
	"fmt"

	"sre/internal/buffer"
	"sre/internal/chip"
	"sre/internal/compress"
	"sre/internal/core"
	"sre/internal/mapping"
	"sre/internal/parallel"
	"sre/internal/quant"
	"sre/internal/workload"
)

// AblationIndexBits studies the §6 design choice the paper describes but
// does not plot: the input-index width trades zero-padding loss in the
// ORC compression ratio against index storage. The paper's rule — the
// minimum width losing <10% of the unpadded ratio — selects 5 bits for
// the four smaller-index networks and 3 bits for GoogLeNet/ResNet-50.
func AblationIndexBits(opt Options) (*Table, error) {
	t := &Table{ID: "ablation-indexbits",
		Title:  "Index width vs ORC compression ratio and storage (§6 policy)",
		Header: []string{"network", "bits", "ORC ratio", "ratio kept", "storage (KB)", "chosen"}}
	p, g := quant.Default(), mapping.Default()
	widths := []int{1, 2, 3, 4, 5, 6, 7}
	if opt.Quick {
		widths = []int{2, 5}
	}
	for _, spec := range specsFor(opt) {
		b, err := build(spec, workload.SSL, p, g, opt)
		if err != nil {
			return nil, err
		}
		ratioAt := func(bits int) (ratio float64, storage int64) {
			var cells, total, bitsSum int64
			for _, l := range b.Layers {
				cells += l.Struct.CompressedCells(compress.ORC, bits)
				total += l.Struct.Layout.TotalCells()
				bitsSum += l.Struct.IndexStorageBits(compress.ORC, bits)
			}
			return float64(total) / float64(maxI64(cells, 1)), bitsSum
		}
		unpadded, _ := ratioAt(0)
		// Re-derive the paper's choice with the 10% rule over the whole
		// network.
		chosen := 0
		for bits := 1; bits <= 7; bits++ {
			if rr, _ := ratioAt(bits); rr >= unpadded*0.9 {
				chosen = bits
				break
			}
		}
		for _, bits := range widths {
			rr, storage := ratioAt(bits)
			mark := ""
			if bits == chosen {
				mark = "<- 10% rule"
			}
			t.AddRow(spec.Name, fmt.Sprintf("%d", bits), f2(rr),
				pct(rr/unpadded), fmt.Sprintf("%.1f", float64(storage)/8/1024), mark)
		}
	}
	t.Notes = append(t.Notes,
		"paper §6 chooses 5,5,5,5,3,3 bits; narrow codes pad more (ratio falls), wide codes store more bits per index")
	return t, nil
}

// AblationOCC compares the paper's chosen row compression (ORC) against
// the §4.1 alternative it rejects, OU-column compression: compression
// ratio, index-storage species (input vs output indexes), cycles, and —
// the deciding argument — that OCC cannot compose with DOF (Fig. 10)
// while ORC+DOF multiplies the gains.
func AblationOCC(opt Options) (*Table, error) {
	t := &Table{ID: "ablation-occ",
		Title: "ORC (rows) vs OCC (columns): why SRE compresses rows",
		Header: []string{"network", "orc ratio", "occ ratio",
			"orc speedup", "occ speedup", "orc+dof speedup",
			"input idx (KB)", "output idx (KB)"}}
	p, g := quant.Default(), mapping.Default()
	for _, spec := range specsFor(opt) {
		b, err := build(spec, workload.SSL, p, g, opt)
		if err != nil {
			return nil, err
		}
		occs, err := spec.BuildOCCStructures(workload.SSL, p, g, opt.Seed, parallel.New(opt.Workers))
		if err != nil {
			return nil, err
		}
		layers := make([]core.Layer, len(b.Layers))
		copy(layers, b.Layers)
		var orcCells, occCells, total, inBits, outBits int64
		for i := range layers {
			layers[i].OCC = occs[i]
			orcCells += layers[i].Struct.CompressedCells(compress.ORC, spec.IndexBits)
			occCells += occs[i].CompressedCells()
			total += layers[i].Struct.Layout.TotalCells()
			inBits += layers[i].Struct.IndexStorageBits(compress.ORC, spec.IndexBits)
			outBits += occs[i].OutputIndexBits()
		}
		res := make([]core.NetworkResult, 4)
		for i, m := range []core.Mode{core.ModeBaseline, core.ModeORC, core.ModeOCC, core.ModeORCDOF} {
			res[i], err = core.SimulateNetworkContext(context.Background(), layers,
				coreConfig(m, p, g, spec.IndexBits, opt))
			if err != nil {
				return nil, err
			}
		}
		base, orc, occ, both := res[0], res[1], res[2], res[3]
		bc := float64(base.Cycles)
		t.AddRow(spec.Name,
			f2(float64(total)/float64(maxI64(orcCells, 1))),
			f2(float64(total)/float64(maxI64(occCells, 1))),
			f2(bc/float64(orc.Cycles)),
			f2(bc/float64(occ.Cycles)),
			f2(bc/float64(both.Cycles)),
			fmt.Sprintf("%.1f", float64(inBits)/8/1024),
			fmt.Sprintf("%.1f", float64(outBits)/8/1024))
	}
	t.Notes = append(t.Notes,
		"SSL's zero structure is row-shaped, so OCC finds little to remove here; even where it could, it needs per-column output indexing and cannot combine with DOF (Fig. 10) — the orc+dof column is unreachable for it")
	return t, nil
}

// AblationBuffer validates the §5.3 buffer design claim: the 8-bank,
// 512-bit eDRAM buffer fetches a full input batch within one pipeline
// cycle, so SRE's pipeline never waits on it; undersized buffers do
// stall, especially in ORC mode where every column group fetches its own
// batch.
func AblationBuffer(opt Options) (*Table, error) {
	t := &Table{ID: "ablation-buffer",
		Title:  "eDRAM buffer sizing vs pipeline latency (§5.3 claim)",
		Header: []string{"network", "buffer", "mode", "cycles", "slowdown"}}
	p, g := quant.Default(), mapping.Default()
	name := "CIFAR-10"
	spec, err := workload.SpecByName(name)
	if err != nil {
		return nil, err
	}
	b, err := build(spec, workload.SSL, p, g, opt)
	if err != nil {
		return nil, err
	}
	buffers := []struct {
		label string
		cfg   buffer.Config
	}{
		{"ideal (assumed)", buffer.Config{}},
		{"paper: 8 banks x 512b", buffer.Default()},
		{"2 banks x 512b", buffer.Config{CapacityBytes: 64 << 10, Banks: 2, BusBits: 512, Clock: 1.2e9}},
		{"1 bank x 64b", buffer.Config{CapacityBytes: 64 << 10, Banks: 1, BusBits: 64, Clock: 1.2e9}},
	}
	for _, mode := range []core.Mode{core.ModeORCDOF, core.ModeDOF} {
		var baseCycles int64
		for i, bc := range buffers {
			cfg := coreConfig(mode, p, g, spec.IndexBits, opt)
			cfg.Buffer = bc.cfg
			res, err := core.SimulateNetworkContext(context.Background(), b.Layers, cfg)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				baseCycles = res.Cycles
			}
			t.AddRow(name, bc.label, mode.String(),
				fmt.Sprintf("%d", res.Cycles),
				f2(float64(res.Cycles)/float64(baseCycles)))
		}
	}
	t.Notes = append(t.Notes,
		"the paper's buffer matches the ideal one-cycle-fetch assumption; starving the buffer stalls compressed modes hardest (they have the least compute to hide fetches behind)")
	return t, nil
}

// AblationReplication re-weighs the Fig. 17 headline under ISAAC-style
// throughput-balanced weight replication. The paper's infrastructure is
// ISAAC-based and replicates window-heavy early layers across the chip's
// spare arrays; our default model is deliberately unreplicated (one copy
// per layer), which lets the unprunable stem convolution dominate
// end-to-end latency. The replication plan is computed once from the
// *baseline* per-layer latencies — the mapping is fixed before any
// sparsity mode runs — and applied identically to every mode.
func AblationReplication(opt Options) (*Table, error) {
	t := &Table{ID: "ablation-replication",
		Title: "ORC+DOF speedup without vs with ISAAC-style replication",
		Header: []string{"network", "arrays", "chips", "orc+dof (1 copy/layer)",
			"orc+dof (replicated)", "throughput gain"}}
	p, g := quant.Default(), mapping.Default()
	ch := chip.Default()
	for _, spec := range specsFor(opt) {
		b, err := build(spec, workload.SSL, p, g, opt)
		if err != nil {
			return nil, err
		}
		base, err := simulate(b, core.ModeBaseline, p, g, spec.IndexBits, opt)
		if err != nil {
			return nil, err
		}
		sre, err := simulate(b, core.ModeORCDOF, p, g, spec.IndexBits, opt)
		if err != nil {
			return nil, err
		}

		demands := make([]chip.LayerDemand, len(b.Layers))
		for i, l := range b.Layers {
			demands[i] = chip.LayerDemand{
				Name:    l.Name,
				Arrays:  l.Struct.Layout.TotalArrays(),
				Latency: base.Layers[i].Time,
			}
		}
		baseArrays := chip.BaseArrays(demands)
		chips := ch.ChipsFor(baseArrays)
		plan := chip.Balance(demands, chips*ch.Arrays())

		repl := func(res core.NetworkResult) float64 {
			total := 0.0
			for i, lr := range res.Layers {
				total += lr.Time / float64(plan.Copies[i])
			}
			return total
		}
		plain := float64(base.Cycles) / float64(sre.Cycles)
		replicated := repl(base) / repl(sre)
		thr := plan.Throughput(demands) * plan.Latency(demands) // ≥1: balance quality
		t.AddRow(spec.Name,
			fmt.Sprintf("%d", baseArrays),
			fmt.Sprintf("%d", chips),
			f2(plain), f2(replicated), f2(thr))
	}
	t.Notes = append(t.Notes,
		"finding: with balanced mapping the end-to-end speedup becomes (roughly) the harmonic mean of per-layer speedups, and it moves only mildly — the headline is mapping-insensitive in this reproduction; the residual gap to the paper's 42.3x VGG-16 number is per-layer (ceil floors on OU counts), not layer weighting",
		"throughput gain = balanced latency x pipelined rate (layers per inference overlap)")
	return t, nil
}
