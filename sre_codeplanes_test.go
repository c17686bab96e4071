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
// the window-code plane cache's accounting: every mode looks the plane
// up once per layer, exactly one lookup per layer builds it (the cache
// is fresh — networks attach a CodePlanes per layer at build time), and
// the other seven hit. The hits == 7·layers identity is what makes the
// cache worth its memory: all but one of the eight modes read codes
// somebody else already materialized.
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
	hits := snap.Counters["sre_core_code_cache_hits_total"]
	misses := snap.Counters["sre_core_code_cache_misses_total"]
	builds := snap.Counters["sre_core_code_cache_builds_total"]
	if misses != layers || builds != layers {
		t.Fatalf("code cache misses=%d builds=%d, want both == layers (%d)", misses, builds, layers)
	}
	if hits != 7*layers {
		t.Fatalf("code cache hits = %d, want 7·layers (%d)", hits, 7*layers)
	}
	if bytes := snap.Counters["sre_core_code_cache_bytes_total"]; bytes <= 0 {
		t.Fatalf("code cache resident bytes = %d, want > 0", bytes)
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
// what the sweep reports: RunAll with the layers' code planes must be
// deeply equal to the same modes run over the same layers with Codes
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
		built.Layers[i].Codes = nil
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
				t.Fatalf("workers=%d maxWin=%d: cached sweep diverges from the layers without code planes",
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
		t.Fatal("RunOCC diverges without code planes")
	}
}
