// Per-mode benchmarks of the layer engine's hot path, plus the scalar
// reference variants: comparing BenchmarkSimulateLayer/<mode> against
// BenchmarkSimulateLayerScalar/<mode> shows the word-plane kernel and
// plan-cache speedup (and the allocs/op drop) within a single run.
package core

import (
	"context"
	"testing"

	"sre/internal/compress"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/tensor"
	"sre/internal/xrand"
)

// benchLayer builds the hot-path micro-benchmark's shape: 512 rows, 64
// logical columns, 70% weight sparsity, 16 windows of 60%-sparse
// activations. The window source is read-only, so sharing it across
// phase-1 workers is safe.
func benchLayer() Layer {
	p := quant.Default()
	g := mapping.Default()
	r := xrand.New(99)
	w := tensor.New(512, 64)
	for row := 0; row < 512; row++ {
		for c := 0; c < 64; c++ {
			if !r.Bernoulli(0.7) {
				w.Set(float32(r.Float64()*2-1), row, c)
			}
		}
	}
	st := compress.Build(compress.NewFloatSource(w, p), p, g)
	ra := xrand.New(7)
	src := &sliceSource{}
	for wi := 0; wi < 16; wi++ {
		v := make([]uint32, 512)
		for i := range v {
			if !ra.Bernoulli(0.6) {
				v[i] = uint32(ra.Intn(1 << 16))
			}
		}
		src.rows = append(src.rows, v)
	}
	return Layer{Name: "bench", Struct: st, Acts: src}
}

func benchSimulateLayer(b *testing.B, simulate func(context.Context, Layer, Config) (LayerResult, error)) {
	layer := benchLayer()
	for _, mode := range []Mode{ModeBaseline, ModeORC, ModeDOF, ModeORCDOF} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = 0
			cfg.Workers = 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simulate(context.Background(), layer, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateLayer is the layer engine (word-plane phase 1 over
// the memoized plan cache).
func BenchmarkSimulateLayer(b *testing.B) { benchSimulateLayer(b, SimulateLayerContext) }

// BenchmarkSimulateLayerScalar is the pre-kernel scalar reference, kept
// for golden-equality testing; its ratio to BenchmarkSimulateLayer is
// the kernels' speedup.
func BenchmarkSimulateLayerScalar(b *testing.B) { benchSimulateLayer(b, scalarSimulateLayer) }
