package core

import (
	"context"
	"strings"
	"testing"

	"sre/internal/compress"
	"sre/internal/mapping"
	"sre/internal/quant"
)

// noSlicePlaneStructure rebuilds a structure through the plane decoder
// with the slice-plane section absent — the shape a pre-format-2
// snapshot (or any caller of NewStructureFromPlanes passing nil slice
// planes) produces.
func noSlicePlaneStructure(t *testing.T, rows, cols int, p quant.Params, g mapping.Geometry) *compress.Structure {
	t.Helper()
	st, _, _ := smallCase(3, rows, cols, p, g, 0.5, 0)
	planes := st.AppendPlanes(nil)
	back, err := compress.NewStructureFromPlanes(rows, cols, p, g, planes, nil, st.NonZeroCells())
	if err != nil {
		t.Fatal(err)
	}
	if back.HasSlicePlanes() {
		t.Fatal("nil slice planes still produced a slice grid")
	}
	return back
}

// TestInvalidModeCombosRejected is the mode×structure table test:
// every combination the paper's Fig. 10 (or the engine's data
// requirements) forbids must be rejected with an error that names the
// offending layer, and must fail identically through the batch path.
func TestInvalidModeCombosRejected(t *testing.T) {
	p := quant.Default()
	g := mapping.Default()
	full, _, inputs := smallCase(3, 40, 24, p, g, 0.5, 0)
	bare := noSlicePlaneStructure(t, 40, 24, p, g)
	acts := &sliceSource{rows: [][]uint32{inputs}}

	cases := []struct {
		name   string
		mode   Mode
		st     *compress.Structure
		substr string // must appear in the error
	}{
		{"occ+dof", Mode{compress.OCC, true}, full, "cannot combine with DOF"},
		{"occ without companion", ModeOCC, full, "needs Layer.OCC"},
		{"wss without slice planes", ModeWSS, bare, "weight bit-slice planes"},
		{"orc+dof+wss without slice planes", ModeORCDOFWSS, bare, "weight bit-slice planes"},
	}
	for _, tc := range cases {
		layer := Layer{Name: "victim", Struct: tc.st, Acts: acts}
		cfg := DefaultConfig()
		cfg.Mode = tc.mode
		_, err := SimulateLayerContext(context.Background(), layer, cfg)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), `"victim"`) {
			t.Fatalf("%s: error does not name the layer: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Fatalf("%s: error %v does not explain (%q)", tc.name, err, tc.substr)
		}
		_, berr := SimulateNetworkContext(context.Background(), []Layer{layer}, cfg)
		if berr == nil {
			t.Fatalf("%s: network path accepted", tc.name)
		}
		if !strings.Contains(berr.Error(), `"victim"`) {
			t.Fatalf("%s: network-path error does not name the layer: %v", tc.name, berr)
		}
	}

	// The same modes on the right structure are fine.
	for _, mode := range []Mode{ModeWSS, ModeORCDOFWSS} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		if _, err := SimulateLayerContext(context.Background(), Layer{Name: "ok", Struct: full, Acts: acts}, cfg); err != nil {
			t.Fatalf("%v rejected a slice-plane structure: %v", mode, err)
		}
	}
}

// TestBatchWindowMismatchErrors pins that a substituted source must
// agree with its layer on the window count: for a static and a DOF
// mode, the batched network engine reports an error naming the layer
// and the batch input rather than simulating a different shape.
func TestBatchWindowMismatchErrors(t *testing.T) {
	layer := goldenLayer(t)
	short := &sliceSource{rows: layer.Acts.(*sliceSource).rows[:4]}
	batch := []BatchInput{{}, {Sources: []ActivationSource{short}}}
	for _, mode := range []Mode{ModeORC, ModeORCDOF} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		_, err := SimulateNetworkBatchContext(context.Background(), []Layer{layer}, cfg, batch)
		if err == nil {
			t.Fatalf("%v: accepted a 4-window source for a 9-window layer", mode)
		}
		for _, want := range []string{`"golden"`, "batch input 1", "4 windows"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%v: error %v does not mention %q", mode, err, want)
			}
		}
	}
}
