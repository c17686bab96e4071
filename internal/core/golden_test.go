package core

import (
	"context"
	"fmt"
	"testing"

	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/metrics"
	"sre/internal/quant"
	"sre/internal/xrand"
)

// goldenLayer builds a multi-tile layer: 200 rows → two row blocks
// (128 + a non-word-aligned 72), 20 logical columns → 160 physical →
// two column blocks, sparse weights and activations, several windows.
func goldenLayer(t *testing.T) Layer {
	t.Helper()
	return buildGoldenLayer("golden", 200, 20, mapping.Default(), 13, 17)
}

// buildGoldenLayer builds a rows×cols layer under geometry g with
// sparse weights (weight stream seed wSeed) and 9 windows of sparse
// 16-bit activations (stream seed aSeed).
func buildGoldenLayer(name string, rows, cols int, g mapping.Geometry, wSeed, aSeed uint64) Layer {
	st, _, _ := smallCase(wSeed, rows, cols, quant.Default(), g, 0.65, 0)
	r := xrand.New(aSeed)
	src := &sliceSource{}
	for w := 0; w < 9; w++ {
		v := make([]uint32, rows)
		for i := range v {
			if !r.Bernoulli(0.55) {
				v[i] = uint32(r.Intn(1 << 16))
			}
		}
		src.rows = append(src.rows, v)
	}
	return Layer{Name: name, Struct: st, Acts: src}
}

// TestGoldenTailShapes covers the tile shapes goldenLayer never builds:
// 180 rows → a 128-row block and a one-word 52-row tail, 22 logical
// columns → 176 physical → column blocks of 8 and 3 (odd) groups, and
// a non-power-of-two OU (12, giving 11 and 4 groups), which takes the
// portable TileOUs tier. For every mode and worker count the unmetered
// kernel, the metered kernel (whose TileOUs calls also tally fill
// classes) and the scalar reference must give equal LayerResults, and
// the metered kernel's occupancy histogram must equal the metered
// scalar reference's.
func TestGoldenTailShapes(t *testing.T) {
	ctx := context.Background()
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF, ModeWSS, ModeORCDOFWSS}
	for _, ou := range []int{16, 12} {
		geom := mapping.Default().WithOU(ou)
		layer := buildGoldenLayer("golden-tail", 180, 22, geom, 19, 23)
		lay := layer.Struct.Layout
		if lay.RowBlocks != 2 || lay.TileRows(1) != 52 || lay.ColBlocks != 2 ||
			lay.GroupsInTile(1) != (48+ou-1)/ou {
			t.Fatalf("OU %d: unexpected layout %+v", ou, lay)
		}
		for _, mode := range modes {
			for _, workers := range []int{1, 4} {
				cfg := DefaultConfig()
				cfg.Geometry = geom
				cfg.Mode = mode
				cfg.MaxWindows = 0
				cfg.Workers = workers
				plain, err := SimulateLayerContext(ctx, layer, cfg)
				if err != nil {
					t.Fatalf("OU %d %v workers=%d unmetered: %v", ou, mode, workers, err)
				}
				cfg.Metrics = metrics.NewRegistry()
				metered, err := SimulateLayerContext(ctx, layer, cfg)
				if err != nil {
					t.Fatalf("OU %d %v workers=%d metered: %v", ou, mode, workers, err)
				}
				meteredReg := cfg.Metrics
				cfg.Metrics = nil
				scalar, err := scalarSimulateLayer(ctx, layer, cfg)
				if err != nil {
					t.Fatalf("OU %d %v workers=%d scalar: %v", ou, mode, workers, err)
				}
				if plain != metered || plain != scalar {
					t.Fatalf("OU %d %v workers=%d: unmetered %+v, metered %+v, scalar %+v",
						ou, mode, workers, plain, metered, scalar)
				}
				kernelOcc := meteredReg.Snapshot().Histograms[occName(mode)]
				cfg.Metrics = metrics.NewRegistry()
				if _, err := scalarSimulateLayer(ctx, layer, cfg); err != nil {
					t.Fatalf("OU %d %v workers=%d metered scalar: %v", ou, mode, workers, err)
				}
				scalarOcc := cfg.Metrics.Snapshot().Histograms[occName(mode)]
				if kernelOcc.Count == 0 || fmt.Sprint(kernelOcc) != fmt.Sprint(scalarOcc) {
					t.Fatalf("OU %d %v workers=%d: kernel occupancy %+v != scalar %+v",
						ou, mode, workers, kernelOcc, scalarOcc)
				}
			}
		}
	}
}

// TestGoldenKernelMatchesScalar is the tentpole's bit-identity proof:
// for every mode and worker count, the word-plane kernel path must
// produce exactly the results of the retained scalar reference — same
// Cycles, Stalls, OUEvents, Fetches, and bit-for-bit the same Energy
// floats.
func TestGoldenKernelMatchesScalar(t *testing.T) {
	layer := goldenLayer(t)
	ctx := context.Background()
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF, ModeWSS, ModeORCDOFWSS}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = 0
			cfg.Workers = workers
			kernel, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d kernel: %v", mode, workers, err)
			}
			scalar, err := scalarSimulateLayer(ctx, layer, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d scalar: %v", mode, workers, err)
			}
			if kernel != scalar {
				t.Fatalf("%v workers=%d: kernel %+v != scalar %+v", mode, workers, kernel, scalar)
			}
		}
	}
}

// TestGoldenSampledWindows repeats the identity with window sampling
// engaged (sampled stride indexing is part of the phase-1 contract).
func TestGoldenSampledWindows(t *testing.T) {
	layer := goldenLayer(t)
	ctx := context.Background()
	for _, mode := range []Mode{ModeDOF, ModeORCDOF} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.MaxWindows = 4
		cfg.Workers = 3
		kernel, err := SimulateLayerContext(ctx, layer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := scalarSimulateLayer(ctx, layer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if kernel != scalar {
			t.Fatalf("%v sampled: kernel %+v != scalar %+v", mode, kernel, scalar)
		}
	}
}

// TestGoldenMeteredIdentical pins the observability guarantee: a run
// with a metrics registry attached produces exactly the LayerResult of
// an unmetered run — same Cycles, Stalls, OUEvents, Fetches, and
// bit-for-bit the same Energy floats — for every mode at several worker
// counts. It also reconciles the recorded counters against the result:
// with sampling disabled the OU-activation counter and the occupancy
// histogram's observation count must both equal the layer's OUEvents.
func TestGoldenMeteredIdentical(t *testing.T) {
	layer := goldenLayer(t)
	ctx := context.Background()
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF, ModeWSS, ModeORCDOFWSS}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = 0
			cfg.Workers = workers
			plain, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d unmetered: %v", mode, workers, err)
			}
			cfg.Metrics = metrics.NewRegistry()
			metered, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d metered: %v", mode, workers, err)
			}
			if metered != plain {
				t.Fatalf("%v workers=%d: metered %+v != unmetered %+v", mode, workers, metered, plain)
			}
			snap := cfg.Metrics.Snapshot()
			ouName := fmt.Sprintf("sre_core_ou_activations_total{mode=%q}", mode.String())
			if got := snap.Counters[ouName]; got != plain.OUEvents {
				t.Fatalf("%v workers=%d: %s = %d, want %d", mode, workers, ouName, got, plain.OUEvents)
			}
			occ, ok := snap.Histograms[occName(mode)]
			if !ok {
				t.Fatalf("%v workers=%d: occupancy histogram missing", mode, workers)
			}
			if occ.Count != plain.OUEvents {
				t.Fatalf("%v workers=%d: occupancy observations %d, want OUEvents %d",
					mode, workers, occ.Count, plain.OUEvents)
			}
			winName := fmt.Sprintf("sre_core_windows_simulated_total{mode=%q}", mode.String())
			if got := snap.Counters[winName]; got != int64(plain.Sampled) {
				t.Fatalf("%v workers=%d: %s = %d, want %d", mode, workers, winName, got, plain.Sampled)
			}
		}
	}
}

// TestGoldenMeteredScalarOccupancy pins the scalar reference path to the
// same occupancy observations as the kernel path.
func TestGoldenMeteredScalarOccupancy(t *testing.T) {
	layer := goldenLayer(t)
	ctx := context.Background()
	for _, mode := range []Mode{ModeNaive, ModeDOF, ModeORCDOF, ModeORCDOFWSS} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.MaxWindows = 0
		cfg.Workers = 2
		cfg.Metrics = metrics.NewRegistry()
		if _, err := SimulateLayerContext(ctx, layer, cfg); err != nil {
			t.Fatal(err)
		}
		kernel := cfg.Metrics.Snapshot().Histograms[occName(mode)]
		cfg.Metrics = metrics.NewRegistry()
		if _, err := scalarSimulateLayer(ctx, layer, cfg); err != nil {
			t.Fatal(err)
		}
		scalar := cfg.Metrics.Snapshot().Histograms[occName(mode)]
		if fmt.Sprint(kernel) != fmt.Sprint(scalar) {
			t.Fatalf("%v: kernel occupancy %+v != scalar %+v", mode, kernel, scalar)
		}
	}
}

// TestOccupancyClassesMatchBuckets ties bitset.TileOUs' fill classes,
// and occClass, which files full OUs and Baseline-scheme partial OUs,
// to the histogram: for every fill v in 1..256, groups with v driven
// rows must be tallied in the bucket Histogram.ObserveN picks for v
// under occupancyBounds. Four-word groups at swl 512 take the portable
// tier; fills below 128 also run four two-word groups at swl 128, the
// AVX2 tier on CPUs that have it.
func TestOccupancyClassesMatchBuckets(t *testing.T) {
	reg := metrics.NewRegistry()
	sh := reg.Shard()
	for v := 1; v <= 256; v++ {
		sh.Histogram(fmt.Sprint(v), occupancyBounds).ObserveN(int64(v), 1)
	}
	snap := reg.Snapshot()
	for v := 1; v <= 256; v++ {
		bucket := -1
		for k, n := range snap.Histograms[fmt.Sprint(v)].Counts {
			if n == 1 {
				bucket = k
			}
		}
		if got := occClass(v); got != bucket {
			t.Fatalf("fill %d: occClass %d, ObserveN bucket %d", v, got, bucket)
		}
		tally := func(w, swl int) {
			const groups = 4
			mask := make([]uint64, w)
			plane := make([]uint64, groups*w)
			for i := range mask {
				mask[i] = ^uint64(0)
			}
			for g := 0; g < groups; g++ {
				for row := 0; row < v; row++ {
					plane[g*w+row/64] |= 1 << uint(row%64)
				}
			}
			var part, want [9]int64
			want[bucket] = groups
			if _, wl := bitset.TileOUs(mask, w, 1, plane, groups, swl, &part); wl != int64(groups*v) || part != want {
				t.Fatalf("fill %d, w=%d, swl %d: wl %d, classes %v, want %d, %v", v, w, swl, wl, part, groups*v, want)
			}
		}
		tally(4, 512)
		if v < 128 {
			tally(2, 128)
		}
	}
}

// TestGeometryMismatchErrors pins the error-instead-of-panic contract
// for structures built under a different geometry.
func TestGeometryMismatchErrors(t *testing.T) {
	layer := goldenLayer(t)
	cfg := DefaultConfig()
	cfg.Geometry = cfg.Geometry.WithOU(32)
	if _, err := SimulateLayerContext(context.Background(), layer, cfg); err == nil {
		t.Fatal("expected a geometry-mismatch error")
	}
	if _, err := SimulateNetworkContext(context.Background(), []Layer{layer}, cfg); err == nil {
		t.Fatal("expected the network engine to surface the mismatch")
	}
	cfg = DefaultConfig()
	cfg.Quant.DACBits = 3 // 16 % 3 != 0
	if _, err := SimulateLayerContext(context.Background(), layer, cfg); err == nil {
		t.Fatal("expected a quantization validation error")
	}
}
