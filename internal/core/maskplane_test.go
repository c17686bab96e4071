package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"sre/internal/bitset"
	"sre/internal/metrics"
	"sre/internal/tensor"
)

// TestGoldenCodeCacheBitIdentical is the activation cache's identity
// proof: for every mode, worker count, and sampling setting, a layer
// that carries a MaskPlanes must produce exactly the LayerResult of the
// same layer without one — same Cycles, Stalls, OUEvents, Fetches, and
// bit-for-bit the same Energy floats. One MaskPlanes instance persists
// across all runs, so later iterations also prove reads of an
// already-built plane stay identical.
func TestGoldenCodeCacheBitIdentical(t *testing.T) {
	uncached := goldenLayer(t)
	cached := uncached
	cached.Masks = NewMaskPlanes()
	ctx := context.Background()
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF}
	for _, mode := range modes {
		for _, workers := range []int{1, 0} {
			for _, maxWin := range []int{0, 4} {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.MaxWindows = maxWin
				cfg.Workers = workers
				tag := fmt.Sprintf("%v workers=%d maxWin=%d", mode, workers, maxWin)
				want, err := SimulateLayerContext(ctx, uncached, cfg)
				if err != nil {
					t.Fatalf("%s uncached: %v", tag, err)
				}
				got, err := SimulateLayerContext(ctx, cached, cfg)
				if err != nil {
					t.Fatalf("%s cached: %v", tag, err)
				}
				if got != want {
					t.Fatalf("%s: cached %+v != uncached %+v", tag, got, want)
				}
			}
		}
	}
}

// TestGoldenCodeCacheMeteredIdentical repeats the identity with a
// metrics registry attached and reconciles the mask cache's counters:
// only the DOF modes look a plane up, distinct sampled-window counts
// build distinct planes exactly once, and every other lookup hits.
func TestGoldenCodeCacheMeteredIdentical(t *testing.T) {
	layer := goldenLayer(t)
	layer.Masks = NewMaskPlanes()
	ctx := context.Background()
	reg := metrics.NewRegistry()
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF}
	lookups := 0
	for _, mode := range modes {
		for _, maxWin := range []int{0, 4} { // two distinct sampled counts
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = maxWin
			cfg.Workers = 2
			plain, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Metrics = reg
			metered, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if metered != plain {
				t.Fatalf("%v maxWin=%d: metered %+v != unmetered %+v", mode, maxWin, metered, plain)
			}
			if mode.DOF {
				lookups++ // only the metered run feeds the counters
			}
		}
	}
	snap := reg.Snapshot()
	// The unmetered warm-up runs already built both planes, so every
	// metered lookup hits; builds are therefore absent from this
	// registry, and misses stay zero.
	if got := snap.Counters["sre_core_mask_cache_hits_total"]; got != int64(lookups) {
		t.Fatalf("hits = %d, want %d", got, lookups)
	}
	if got := snap.Counters["sre_core_mask_cache_misses_total"]; got != 0 {
		t.Fatalf("misses = %d, want 0 (planes pre-built by unmetered runs)", got)
	}

	// A fresh cache under one registry shows the full algebra: one miss
	// and one build per distinct sampled count, hits for the rest, and
	// resident bytes matching the two plane sizes.
	layer.Masks = NewMaskPlanes()
	reg = metrics.NewRegistry()
	lookups = 0
	for _, mode := range modes {
		for _, maxWin := range []int{0, 4} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = maxWin
			cfg.Workers = 2
			cfg.Metrics = reg
			if _, err := SimulateLayerContext(ctx, layer, cfg); err != nil {
				t.Fatal(err)
			}
			if mode.DOF {
				lookups++
			}
		}
	}
	snap = reg.Snapshot()
	const distinct = 2 // sampled counts: all 9 windows, and 4
	if got := snap.Counters["sre_core_mask_cache_misses_total"]; got != distinct {
		t.Fatalf("misses = %d, want %d", got, distinct)
	}
	if got := snap.Counters["sre_core_mask_cache_builds_total"]; got != distinct {
		t.Fatalf("builds = %d, want %d", got, distinct)
	}
	if got := snap.Counters["sre_core_mask_cache_hits_total"]; got != int64(lookups-distinct) {
		t.Fatalf("hits = %d, want %d", got, lookups-distinct)
	}
	lay := layer.Struct.Layout
	spi := DefaultConfig().Quant.SlicesPerInput()
	perWindow := lay.RowBlocks * (spi*bitset.Words64(lay.XbarRows) + 1) * 8
	wantBytes := int64((9 + 4) * perWindow)
	if got := snap.Counters["sre_core_mask_cache_bytes_total"]; got != wantBytes {
		t.Fatalf("bytes = %d, want %d", got, wantBytes)
	}
	if got := layer.Masks.ResidentBytes(); got != wantBytes {
		t.Fatalf("resident bytes = %d, want %d", got, wantBytes)
	}
}

// TestMaskPlaneConcurrentBuild races many goroutines at one entry and
// at two distinct sampled counts; under -race this is the cache's
// safety proof, and the once-per-entry build must hold regardless of
// who wins. Each plane must also equal the masks phase 1 builds window
// by window into its scratch.
func TestMaskPlaneConcurrentBuild(t *testing.T) {
	layer := goldenLayer(t)
	lay := layer.Struct.Layout
	q := DefaultConfig().Quant
	spi := q.SlicesPerInput()
	mps := NewMaskPlanes()
	windows := layer.Acts.Windows()
	reg := metrics.NewRegistry()
	sh := reg.Shard()
	m := maskCacheMetrics{builds: sh.Counter("builds")}
	var wg sync.WaitGroup
	planes := make([]*maskPlane, 16)
	for i := range planes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sampled := windows
			if i%2 == 1 {
				sampled = 4
			}
			planes[i] = mps.maskPlane(layer.Acts, lay, sampled, windows, q.DACBits, spi, m)
		}(i)
	}
	wg.Wait()
	reg.Release(sh)
	if got := reg.Snapshot().Counters["builds"]; got != 2 {
		t.Fatalf("builds = %d, want 2 (one per sampled count)", got)
	}
	for i := range planes {
		if planes[i] == nil || planes[i] != planes[i%2] {
			t.Fatalf("goroutine %d: plane not shared with its key's first builder", i)
		}
	}
	codes := make([]uint32, lay.Rows)
	heads := make([][]uint64, spi)
	for k, sampled := range []int{windows, 4} {
		mp := planes[k]
		one := newMaskPlane(1, lay, spi)
		stride := len(one.words)
		if len(mp.words) != sampled*stride || len(mp.nonEmpty) != sampled*lay.RowBlocks {
			t.Fatalf("sampled %d: plane of %d/%d words", sampled, len(mp.words), len(mp.nonEmpty))
		}
		for wi := 0; wi < sampled; wi++ {
			layer.Acts.WindowCodes(wi*windows/sampled, codes)
			one.build(0, codes, lay, q.DACBits, heads)
			if !slices.Equal(mp.words[wi*stride:(wi+1)*stride], one.words) ||
				!slices.Equal(mp.nonEmpty[wi*lay.RowBlocks:(wi+1)*lay.RowBlocks], one.nonEmpty) {
				t.Fatalf("sampled %d window %d: cached masks differ from a scratch build", sampled, wi)
			}
		}
	}
}

// TestMaskPlaneSizeBound pins the memory backstop: a plane that would
// exceed maxCachedMaskWords is not cached (the caller falls back to
// per-window source reads) and records neither a lookup nor a build.
func TestMaskPlaneSizeBound(t *testing.T) {
	lay := goldenLayer(t).Struct.Layout
	spi := 16
	perWindow := lay.RowBlocks * spi * bitset.Words64(lay.XbarRows)
	mps := NewMaskPlanes()
	for _, sampled := range []int{maxCachedMaskWords/perWindow + 1, math.MaxInt / 2} {
		if mp := mps.maskPlane(nil, lay, sampled, sampled, 1, spi, maskCacheMetrics{}); mp != nil {
			t.Fatalf("oversized plane of %d windows was cached", sampled)
		}
	}
	if len(mps.masks) != 0 || mps.ResidentBytes() != 0 {
		t.Fatalf("oversized requests left %d cache entries, %d bytes", len(mps.masks), mps.ResidentBytes())
	}
}

// TestTensorSourceCloneWindowCodes checks that one TensorSource needs
// no clone per reader: two readers interleaving windows in forward and
// reversed order must reproduce exactly the codes of a serial forward
// pass, because each WindowCodes call gathers its window into a buffer
// of its own while the tensor is only read.
func TestTensorSourceCloneWindowCodes(t *testing.T) {
	x := tensor.New(3, 6, 6)
	for i := range x.Data() {
		x.Data()[i] = float32(i%7) - 3.2
	}
	src := NewTensorSource(x, 3, 1, 1, 8)
	rows := 3 * 3 * 3
	windows := src.Windows()
	want := make([][]uint32, windows)
	for w := 0; w < windows; w++ {
		want[w] = make([]uint32, rows)
		src.WindowCodes(w, want[w])
	}
	a := make([]uint32, rows)
	b := make([]uint32, rows)
	// Interleave opposite orders on the same source; any scratch shared
	// between calls would cross-contaminate the gathers.
	for w := 0; w < windows; w++ {
		rev := windows - 1 - w
		src.WindowCodes(w, a)
		src.WindowCodes(rev, b)
		for i := range a {
			if a[i] != want[w][i] {
				t.Fatalf("forward reader window %d row %d: %d != %d", w, i, a[i], want[w][i])
			}
			if b[i] != want[rev][i] {
				t.Fatalf("reverse reader window %d row %d: %d != %d", rev, i, b[i], want[rev][i])
			}
		}
	}
}

// TestTensorSourceConcurrentClones reads one shared TensorSource, with
// no clone per goroutine, from 8 goroutines, each in its own window
// order (half of them reversed), and checks every read against the
// serial codes; under -race this is the proof that WindowCodes is safe
// for concurrent use, as phase 1 requires.
func TestTensorSourceConcurrentClones(t *testing.T) {
	x := tensor.New(2, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32((i*13)%11) * 0.25
	}
	src := NewTensorSource(x, 3, 1, 0, 8)
	rows := 2 * 3 * 3
	windows := src.Windows()
	want := make([]uint32, windows*rows)
	for w := 0; w < windows; w++ {
		src.WindowCodes(w, want[w*rows:(w+1)*rows])
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]uint32, rows)
			for rep := 0; rep < 3; rep++ {
				for w := 0; w < windows; w++ {
					wi := (w*7 + g) % windows // 7 is coprime with the 36 windows
					if g%2 == 1 {
						wi = windows - 1 - wi
					}
					src.WindowCodes(wi, got)
					for i := range got {
						if got[i] != want[wi*rows+i] {
							errs[g] = fmt.Errorf("goroutine %d window %d row %d: %d != %d",
								g, wi, i, got[i], want[wi*rows+i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchMixedInputsMatchSingleRuns runs one phase-1 dispatch over
// inputs of both kinds: the batch [own, a distinct source with the same
// codes, own] on a layer with Masks reads cached mask planes for inputs
// 0 and 2 and the source for input 1. At MaxWindows 0 the 27 flattened
// windows split into chunks of 4 and 2 at workers 1 and 2, so a chunk
// spans a cached-mask input and a source-read input. Every input's
// result must equal the single run's, and a metered batch must record
// the occupancy of three single runs in a DOF mode and of one in a
// static mode, which is simulated once per batch.
func TestBatchMixedInputsMatchSingleRuns(t *testing.T) {
	layer := goldenLayer(t)
	layer.Masks = NewMaskPlanes()
	copied := &sliceSource{rows: layer.Acts.(*sliceSource).rows}
	batch := []BatchInput{{}, {Sources: []ActivationSource{copied}}, {}}
	ctx := context.Background()
	for _, mode := range []Mode{ModeDOF, ModeORCDOF, ModeORC} {
		reps := 1
		if mode.DOF {
			reps = len(batch)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, maxWin := range []int{0, 4} {
				tag := fmt.Sprintf("%v workers=%d maxWin=%d", mode, workers, maxWin)
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.MaxWindows = maxWin
				cfg.Workers = workers
				want := runLayer(t, layer, cfg)
				cfg.Metrics = metrics.NewRegistry()
				for r := 0; r < reps; r++ {
					runLayer(t, layer, cfg)
				}
				wantOcc := cfg.Metrics.Snapshot().Histograms[occName(mode)]
				reg := metrics.NewRegistry()
				for _, m := range []*metrics.Registry{nil, reg} {
					cfg.Metrics = m
					out, err := SimulateNetworkBatchContext(ctx, []Layer{layer}, cfg, batch)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					for j := range out {
						if got := out[j].Layers[0]; got != want {
							t.Fatalf("%s metered=%v: input %d %+v != single run %+v", tag, m != nil, j, got, want)
						}
					}
				}
				if got := reg.Snapshot().Histograms[occName(mode)]; got.Count == 0 || fmt.Sprint(got) != fmt.Sprint(wantOcc) {
					t.Fatalf("%s: batch occupancy %+v, want %+v", tag, got, wantOcc)
				}
			}
		}
	}
}
