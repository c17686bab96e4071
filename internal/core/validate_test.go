package core

import (
	"context"
	"strings"
	"testing"

	"sre/internal/compress"
	"sre/internal/mapping"
	"sre/internal/quant"
)

// TestInvalidModeCombosRejected is the mode×structure table test:
// every combination the paper's Fig. 10 (or the engine's data
// requirements) forbids must be rejected with an error that names the
// offending layer, and must fail identically through the batch path.
func TestInvalidModeCombosRejected(t *testing.T) {
	p := quant.Default()
	g := mapping.Default()
	full, _, inputs := smallCase(3, 40, 24, p, g, 0.5, 0)
	acts := &sliceSource{rows: [][]uint32{inputs}}

	cases := []struct {
		name   string
		mode   Mode
		substr string // must appear in the error
	}{
		{"occ+dof", Mode{compress.OCC, true}, "cannot combine with DOF"},
		{"occ without companion", ModeOCC, "needs Layer.OCC"},
	}
	for _, tc := range cases {
		layer := Layer{Name: "victim", Struct: full, Acts: acts}
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

	// The WSS modes, which plan over the structure's slice-major grid,
	// run on the same layer.
	for _, mode := range []Mode{ModeWSS, ModeORCDOFWSS} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		if _, err := SimulateLayerContext(context.Background(), Layer{Name: "ok", Struct: full, Acts: acts}, cfg); err != nil {
			t.Fatalf("%v rejected a built structure: %v", mode, err)
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
