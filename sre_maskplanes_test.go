package sre

import (
	"context"
	"reflect"
	"testing"

	"sre/internal/core"
)

// zeroMetrics strips the observability snapshots so metered and
// differently-metered results can be compared structurally.
func zeroMetrics(results []Result) []Result {
	out := append([]Result(nil), results...)
	for i := range out {
		out[i].Metrics = nil
	}
	return out
}

// TestRunAllCodeCacheAlgebra runs the full-mode sweep metered and pins
// the slice-mask plane cache's accounting: each of the three DOF modes
// looks the plane up once per layer, exactly one lookup per layer
// builds it (the cache is fresh — networks attach a MaskPlanes per
// layer at build time), and the other two hit. The static modes read no
// activations and look nothing up. The hits == 2·layers identity is
// what makes the cache worth its memory: two of the three DOF modes
// read masks somebody else already built.
func TestRunAllCodeCacheAlgebra(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	if _, err := net.RunAllContext(context.Background(), WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	layers := int64(net.LayerCount())
	hits := snap.Counters["sre_core_mask_cache_hits_total"]
	misses := snap.Counters["sre_core_mask_cache_misses_total"]
	builds := snap.Counters["sre_core_mask_cache_builds_total"]
	if misses != layers || builds != layers {
		t.Fatalf("mask cache misses=%d builds=%d, want both == layers (%d)", misses, builds, layers)
	}
	if hits != 2*layers {
		t.Fatalf("mask cache hits = %d, want 2·layers (%d)", hits, 2*layers)
	}
	var resident int64
	for _, l := range net.built.Layers {
		resident += l.Masks.ResidentBytes()
	}
	if bytes := snap.Counters["sre_core_mask_cache_bytes_total"]; bytes <= 0 || bytes != resident {
		t.Fatalf("mask cache bytes counter = %d, resident bytes %d, want equal and > 0", bytes, resident)
	}
	// The arenas must have been exercised too: one layer-scratch
	// checkout per (mode, layer), phase-1 checkouts for the DOF modes.
	if gets := snap.Counters[`sre_core_arena_gets_total{arena="layer"}`]; gets != 8*layers {
		t.Fatalf("layer arena gets = %d, want 8·layers (%d)", gets, 8*layers)
	}
	if gets := snap.Counters[`sre_core_arena_gets_total{arena="phase1"}`]; gets < 1 {
		t.Fatalf("phase-1 arena saw no checkouts")
	}
}

// TestRunAllCodeCacheResultsIdentical proves the cache never changes
// what the sweep reports: RunAll with the layers' mask planes must be
// deeply equal to the same modes run over the same layers with Masks
// stripped — every mode reading its activation source per window — at
// both a serial and the automatic pool width, with sampling on and off.
func TestRunAllCodeCacheResultsIdentical(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	built := *net.built
	built.Layers = append([]core.Layer(nil), built.Layers...)
	for i := range built.Layers {
		built.Layers[i].Masks = nil
	}
	uncached := &Network{name: net.name, spec: net.spec, built: &built, cfg: net.cfg, style: net.style}
	ctx := context.Background()
	for _, workers := range []int{1, 0} {
		for _, maxWin := range []int{0, 6} {
			cached, err := net.RunAllContext(ctx,
				WithWorkers(workers), WithMaxWindows(maxWin))
			if err != nil {
				t.Fatalf("workers=%d maxWin=%d cached: %v", workers, maxWin, err)
			}
			plain, err := uncached.RunAllContext(ctx,
				WithWorkers(workers), WithMaxWindows(maxWin))
			if err != nil {
				t.Fatalf("workers=%d maxWin=%d uncached: %v", workers, maxWin, err)
			}
			if !reflect.DeepEqual(zeroMetrics(cached), zeroMetrics(plain)) {
				t.Fatalf("workers=%d maxWin=%d: cached sweep diverges from the layers without mask planes",
					workers, maxWin)
			}
		}
	}
	// The identity also holds for the OCC extension path.
	occCached, err := net.RunOCC()
	if err != nil {
		t.Fatal(err)
	}
	occPlain, err := uncached.RunOCC()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(occCached, occPlain) {
		t.Fatal("RunOCC diverges without mask planes")
	}
}

// TestFreshSeedBatchCachesNothing pins that only the network's own
// activations are cached: a metered batch made only of variant seeds
// looks no mask plane up, in its static or its DOF mode, and leaves
// every layer's mask cache empty. The first own-activation run then
// builds one plane per layer.
func TestFreshSeedBatchCachesNothing(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	ctx := context.Background()
	sets := []ActivationSet{{ActSeed: 101}, {ActSeed: 102}}
	if _, err := net.RunBatchContext(ctx, []Mode{Baseline, ORCDOF}, sets, WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, c := range []string{"hits", "misses", "builds", "bytes"} {
		if got := snap.Counters["sre_core_mask_cache_"+c+"_total"]; got != 0 {
			t.Fatalf("fresh-seed batch: sre_core_mask_cache_%s_total = %d, want 0", c, got)
		}
	}
	for i := range net.built.Layers {
		if got := net.built.Layers[i].Masks.ResidentBytes(); got != 0 {
			t.Fatalf("fresh-seed batch cached %d mask-plane bytes in layer %d", got, i)
		}
	}
	size := net.SizeBytes()
	reg = NewMetrics()
	if _, err := net.RunBatchContext(ctx, []Mode{Baseline, ORCDOF}, append(sets, ActivationSet{}), WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["sre_core_mask_cache_builds_total"]; got != int64(net.LayerCount()) {
		t.Fatalf("own-activation set built %d planes, want one per layer (%d)", got, net.LayerCount())
	}
	if net.SizeBytes() <= size {
		t.Fatalf("own-activation set left SizeBytes at %d", net.SizeBytes())
	}
}
