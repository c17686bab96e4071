package core

import (
	"context"
	"testing"

	"sre/internal/buffer"
	"sre/internal/compress"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/tensor"
	"sre/internal/xrand"
)

// buildOCCCase makes a single-tile layer with column-structured zeros
// plus its OCC structure.
func buildOCCCase(t *testing.T, seed uint64) Layer {
	t.Helper()
	r := xrand.New(seed)
	p := quant.Default()
	w := tensor.New(128, 16)
	for row := 0; row < 128; row++ {
		for c := 0; c < 16; c++ {
			if c%2 == 0 && !r.Bernoulli(0.3) { // odd columns mostly zero... even dense
				w.Set(float32(r.Float64()+0.1), row, c)
			}
		}
	}
	src := compress.NewFloatSource(w, p)
	g := mapping.Default()
	st := compress.Build(src, p, g)
	occ := compress.BuildOCC(src, p, g)
	inputs := make([]uint32, 128)
	for i := range inputs {
		if !r.Bernoulli(0.4) {
			inputs[i] = uint32(r.Intn(1 << 16))
		}
	}
	return Layer{Name: "occ", Struct: st, OCC: occ,
		Acts: &sliceSource{rows: [][]uint32{inputs}}}
}

func TestOCCModeSpeedsUpColumnStructure(t *testing.T) {
	l := buildOCCCase(t, 1)
	cfg := DefaultConfig()
	cfg.MaxWindows = 0
	base := runLayer(t, l, cfg)
	cfg.Mode = ModeOCC
	occ := runLayer(t, l, cfg)
	if occ.Cycles >= base.Cycles {
		t.Fatalf("OCC %d cycles vs baseline %d on column-sparse weights", occ.Cycles, base.Cycles)
	}
	// Input order unchanged → same fetch count as baseline.
	if occ.Fetches != base.Fetches {
		t.Fatalf("OCC fetches %d != baseline %d", occ.Fetches, base.Fetches)
	}
	if occ.Energy.Total() >= base.Energy.Total() {
		t.Fatal("OCC should save energy here")
	}
}

func TestOCCPlusDOFErrors(t *testing.T) {
	l := buildOCCCase(t, 2)
	cfg := DefaultConfig()
	cfg.Mode = Mode{Scheme: compress.OCC, DOF: true}
	if _, err := SimulateLayerContext(context.Background(), l, cfg); err == nil {
		t.Fatal("expected the Fig. 10 hazard to be rejected with an error")
	}
}

func TestOCCWithoutStructureErrors(t *testing.T) {
	l := buildOCCCase(t, 3)
	l.OCC = nil
	cfg := DefaultConfig()
	cfg.Mode = ModeOCC
	if _, err := SimulateLayerContext(context.Background(), l, cfg); err == nil {
		t.Fatal("expected an error for missing OCC structure")
	}
	// Through the network engine the error names the failing layer.
	if _, err := SimulateNetworkContext(context.Background(), []Layer{l}, cfg); err == nil {
		t.Fatal("expected the network engine to surface the layer error")
	}
}

// TestOCCCycleFormula pins the static OU count: per tile, per slice,
// Σ_bands ceil(retainedCols/S_BL).
func TestOCCCycleFormula(t *testing.T) {
	l := buildOCCCase(t, 4)
	cfg := DefaultConfig()
	cfg.MaxWindows = 0
	cfg.Mode = ModeOCC
	res := runLayer(t, l, cfg)
	spi := cfg.Quant.SlicesPerInput()
	want := int64(l.OCC.OUsPerTileSlice(0, 0)) * int64(spi)
	if res.OUEvents != want {
		t.Fatalf("OCC OU events %d, want %d", res.OUEvents, want)
	}
}

// TestBufferStalls: the §5.3 buffer design point must add no latency,
// while an undersized buffer must stall the pipeline.
func TestBufferStalls(t *testing.T) {
	l := buildOCCCase(t, 5)
	cfg := DefaultConfig()
	cfg.MaxWindows = 0

	ideal := runLayer(t, l, cfg)

	cfg.Buffer = buffer.Default()
	paper := runLayer(t, l, cfg)
	if paper.Cycles != ideal.Cycles {
		t.Fatalf("paper's buffer (%d cycles) must match the ideal fetch (%d)",
			paper.Cycles, ideal.Cycles)
	}

	cfg.Buffer = buffer.Config{CapacityBytes: 1024, Banks: 1, BusBits: 32, Clock: 1.2e9}
	starved := runLayer(t, l, cfg)
	if starved.Cycles <= ideal.Cycles {
		t.Fatalf("starved buffer did not slow the layer: %d vs %d", starved.Cycles, ideal.Cycles)
	}
}
