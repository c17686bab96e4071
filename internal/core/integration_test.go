package core

import (
	"context"
	"testing"

	"sre/internal/compress"
	"sre/internal/dataset"
	"sre/internal/energy"
	"sre/internal/mapping"
	"sre/internal/nn"
	"sre/internal/prune"
	"sre/internal/quant"
	"sre/internal/train"
)

// TestRealNetworkEndToEnd drives the full real-data path the examples
// advertise: train a small network on synthetic data, magnitude-prune it,
// trace a real forward pass, feed the traced activations through
// TensorSource into the simulator, and check the paper's orderings hold
// on genuinely ReLU-sparse activations (not the synthetic generator).
func TestRealNetworkEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cfg := dataset.Config{Name: "e2e", Channels: 1, Size: 14, Classes: 4,
		Train: 120, Test: 30, Noise: 0.08, MaxShift: 1, Seed: 31}
	trainSet, testSet := dataset.Generate(cfg)
	net, err := nn.Parse("e2e", nn.Shape{1, 14, 14}, "conv5x6-pool-conv3x8-pool-32-4")
	if err != nil {
		t.Fatal(err)
	}
	tr := train.New(net, 0.03, 77)
	for e := 0; e < 6; e++ {
		tr.TrainEpoch(trainSet)
		tr.LR *= 0.6
	}
	if acc := tr.Accuracy(testSet); acc < 0.8 {
		t.Fatalf("training failed (acc %.2f); integration test needs a working model", acc)
	}

	// Magnitude-prune the trained weights to 60% and confirm accuracy
	// survives (magnitude pruning keeps the large weights).
	for _, li := range net.MatrixLayerInfos() {
		switch l := li.Layer.(type) {
		case *nn.Conv:
			prune.Magnitude(l.W.Data(), 0.6)
		case *nn.FC:
			prune.Magnitude(l.W.Data(), 0.6)
		}
	}
	if acc := tr.Accuracy(testSet); acc < 0.6 {
		t.Fatalf("pruned accuracy collapsed to %.2f", acc)
	}

	// Trace a real forward pass and build simulator layers from it.
	trace := &nn.Trace{}
	net.Forward(testSet.X[0], trace)
	p := quant.Default()
	g := mapping.Default()
	infos := net.MatrixLayerInfos()
	var layers []Layer
	for i, li := range infos {
		w := li.Layer.WeightMatrix()
		st := compress.Build(compress.NewFloatSource(w, p), p, g)
		var acts ActivationSource
		if li.Kind == nn.KindConv {
			acts = NewTensorSource(trace.Inputs[i], li.K, li.Stride, li.Pad, p.ABits)
		} else {
			acts = NewTensorSource(trace.Inputs[i], 0, 0, 0, p.ABits)
		}
		if acts.Windows() != li.Windows {
			t.Fatalf("layer %s: traced windows %d != %d", li.Path, acts.Windows(), li.Windows)
		}
		layers = append(layers, Layer{Name: li.Path, Struct: st, Acts: acts})
	}

	run := func(m Mode) NetworkResult {
		res, err := SimulateNetworkContext(context.Background(), layers, Config{
			Geometry: g, Quant: p, Mode: m, IndexBits: 5, MaxWindows: 0,
			Energy: energy.Default(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(ModeBaseline)
	orc := run(ModeORC)
	dof := run(ModeDOF)
	both := run(ModeORCDOF)

	if !(orc.Cycles <= base.Cycles) {
		t.Fatal("ORC slower than baseline on real weights")
	}
	// ReLU guarantees activation sparsity, so DOF must help on real data.
	if !(dof.Cycles < base.Cycles) {
		t.Fatal("DOF found no activation sparsity in a post-ReLU trace")
	}
	if !(both.Cycles <= dof.Cycles && both.Cycles <= orc.Cycles) {
		t.Fatal("ORC+DOF must dominate both parents")
	}
	if !(both.Energy.Total() < base.Energy.Total()) {
		t.Fatal("SRE spent more energy than the baseline")
	}
}
