package metrics_test

import (
	"context"
	"testing"

	"sre"
	"sre/internal/metrics"
)

// TestRegistryBoundedAcrossSweeps runs many metered batched sweeps
// against one registry, as a long-lived daemon does, and checks that
// the registry tracks no more shards after the last sweep than after
// the first: every shard a sweep takes is released when its work ends.
func TestRegistryBoundedAcrossSweeps(t *testing.T) {
	net, err := sre.Load("MNIST", sre.WithPrune(sre.SSL), sre.WithSparsity(0.6, 0.4), sre.WithMaxWindows(12))
	if err != nil {
		t.Fatal(err)
	}
	reg := sre.NewMetrics()
	modes := []sre.Mode{sre.Baseline, sre.ORCDOF}
	const sweeps = 20
	var first int
	for i := 0; i < sweeps; i++ {
		acts := []sre.ActivationSet{{}, {ActSeed: uint64(1000 + i)}}
		if _, err := net.RunBatchContext(context.Background(), modes, acts, sre.WithMetrics(reg)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = metrics.LiveShards(reg)
		}
	}
	if last := metrics.LiveShards(reg); last != first {
		t.Fatalf("registry tracks %d shards after %d sweeps, %d after the first", last, sweeps, first)
	}
	// The released shards' counts live on in the registry's totals: a
	// DOF mode simulates every layer once per activation set.
	want := int64(sweeps * 2 * net.LayerCount())
	if got := reg.Snapshot().Counters[`sre_core_layers_total{mode="orc+dof"}`]; got != want {
		t.Fatalf("orc+dof layers_total = %d, want %d", got, want)
	}
}
