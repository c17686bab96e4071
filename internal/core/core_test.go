package core

import (
	"context"
	"testing"

	"sre/internal/compress"
	"sre/internal/crossbar"
	"sre/internal/energy"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/tensor"
	"sre/internal/xrand"
)

// sliceSource serves explicit per-window code vectors.
type sliceSource struct{ rows [][]uint32 }

func (s *sliceSource) Windows() int { return len(s.rows) }
func (s *sliceSource) WindowCodes(w int, dst []uint32) {
	copy(dst, s.rows[w])
}

// runLayer runs SimulateLayerContext and fails tb on its error.
func runLayer(tb testing.TB, l Layer, cfg Config) LayerResult {
	tb.Helper()
	lr, err := SimulateLayerContext(context.Background(), l, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return lr
}

// smallCase builds a random single-tile layer: weight tensor, its
// structure, quantized matrix, and random input codes.
func smallCase(seed uint64, rows, cols int, p quant.Params, g mapping.Geometry, zeroW, zeroA float64) (
	*compress.Structure, *quant.Matrix, []uint32) {
	r := xrand.New(seed)
	w := tensor.New(rows, cols)
	for i := range w.Data() {
		if !r.Bernoulli(zeroW) {
			w.Data()[i] = float32(r.Float64())
		}
	}
	st := compress.Build(compress.NewFloatSource(w, p), p, g)
	m := quant.QuantizeMatrix(w, p)
	inputs := make([]uint32, rows)
	for i := range inputs {
		if !r.Bernoulli(zeroA) {
			inputs[i] = uint32(r.Intn(1 << uint(p.ABits)))
		}
	}
	return st, m, inputs
}

// orcSchedule converts compress plans into a crossbar schedule for a
// single-tile layout.
func orcSchedule(st *compress.Structure, scheme compress.Scheme, indexBits int) crossbar.Schedule {
	lay := st.Layout
	var sched crossbar.Schedule
	for gi := 0; gi < lay.GroupsInTile(0); gi++ {
		lo, hi := lay.GroupCols(0, gi)
		plan := st.Plan(scheme, 0, 0, gi, indexBits)
		sched.Groups = append(sched.Groups, crossbar.ColGroup{ColLo: lo, ColHi: hi, Rows: plan.Rows})
	}
	return sched
}

// TestOUEventsMatchFunctionalModel is the load-bearing cross-check: the
// analytic OU-event counts must equal the functional crossbar model's
// counted cycles for every mode, and the functional results must stay
// correct.
func TestOUEventsMatchFunctionalModel(t *testing.T) {
	p := quant.Params{WBits: 4, ABits: 4, CellBits: 2, DACBits: 1}
	for trial := 0; trial < 8; trial++ {
		rows := 6 + int(trial)*4
		cols := 2 + trial%3
		g := mapping.Geometry{XbarRows: rows, XbarCols: cols * p.CellsPerWeight(), SWL: 3, SBL: 3}
		st, m, inputs := smallCase(uint64(trial+1), rows, cols, p, g, 0.6, 0.4)
		cm := m.Decompose()
		arr := crossbar.New(rows, cm.PhysCols)
		arr.ProgramWindow(cm, 0, 0)
		acts := &sliceSource{rows: [][]uint32{inputs}}

		for _, mode := range []Mode{ModeBaseline, ModeORC, ModeDOF, ModeORCDOF} {
			cfg := Config{Geometry: g, Quant: p, Mode: mode, IndexBits: 0,
				MaxWindows: 0, Energy: energy.Default()}
			lr := runLayer(t, Layer{Name: "t", Struct: st, Acts: acts}, cfg)

			sched := orcSchedule(st, mode.Scheme, 0)
			fres := crossbar.Execute(arr, inputs, p, g.SWL, sched, mode.DOF)
			if lr.OUEvents != int64(fres.Cycles) {
				t.Fatalf("trial %d mode %s: analytic OU events %d != functional cycles %d",
					trial, mode, lr.OUEvents, fres.Cycles)
			}
			// Functional result must equal the reference product for
			// every result-preserving mode.
			got := crossbar.ComposeLogical(fres.Phys, p)
			want := crossbar.ReferenceProduct(m, inputs)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("trial %d mode %s: functional result wrong at col %d", trial, mode, c)
				}
			}
		}
	}
}

func TestModeOrdering(t *testing.T) {
	p := quant.Default()
	g := mapping.Default()
	r := xrand.New(9)
	w := tensor.New(256, 32)
	// SSL-ish: 50% of rows zero, plus element zeros.
	for row := 0; row < 256; row++ {
		zeroRow := r.Bernoulli(0.5)
		for c := 0; c < 32; c++ {
			if !zeroRow && !r.Bernoulli(0.3) {
				w.Set(float32(r.Float64()), row, c)
			}
		}
	}
	st := compress.Build(compress.NewFloatSource(w, p), p, g)
	// Two windows with ~60% activation sparsity.
	mk := func(seed uint64) []uint32 {
		rr := xrand.New(seed)
		v := make([]uint32, 256)
		for i := range v {
			if !rr.Bernoulli(0.6) {
				v[i] = uint32(rr.Intn(1 << 16))
			}
		}
		return v
	}
	acts := &sliceSource{rows: [][]uint32{mk(1), mk(2)}}
	layer := Layer{Name: "t", Struct: st, Acts: acts}

	results := map[string]LayerResult{}
	for _, mode := range []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.MaxWindows = 0
		results[mode.String()] = runLayer(t, layer, cfg)
	}
	b := results["baseline"]
	if b.Cycles <= 0 || b.Energy.Total() <= 0 {
		t.Fatal("degenerate baseline")
	}
	// Cycle ordering: every sparsity mode beats baseline; ORC beats the
	// coarser row schemes; ORC+DOF beats both parents.
	if !(results["orc"].Cycles <= results["naive"].Cycles &&
		results["naive"].Cycles <= b.Cycles) {
		t.Fatalf("row-compression ordering violated: %d %d %d",
			results["orc"].Cycles, results["naive"].Cycles, b.Cycles)
	}
	if !(results["recom"].Cycles <= b.Cycles) {
		t.Fatal("ReCom slower than baseline")
	}
	if !(results["dof"].Cycles < b.Cycles) {
		t.Fatal("DOF did not speed up a sparse-activation layer")
	}
	if !(results["orc+dof"].Cycles <= results["dof"].Cycles &&
		results["orc+dof"].Cycles <= results["orc"].Cycles) {
		t.Fatal("ORC+DOF must dominate both parents in cycles")
	}
	// Energy: compute energy must shrink with skipped work.
	if !(results["orc+dof"].Energy.Compute < b.Energy.Compute) {
		t.Fatal("ORC+DOF compute energy not reduced")
	}
	// eDRAM: ORC-based modes pay per-group fetches; DOF keeps one per
	// batch, like baseline.
	if !(results["orc+dof"].Energy.EDRAM > results["dof"].Energy.EDRAM) {
		t.Fatal("ORC+DOF must fetch more eDRAM than DOF")
	}
	if results["dof"].Fetches != b.Fetches {
		t.Fatal("DOF must not change fetch count")
	}
}

func TestDeterminism(t *testing.T) {
	p := quant.Default()
	g := mapping.Default()
	st, _, inputs := smallCase(5, 200, 16, p, g, 0.7, 0.5)
	acts := &sliceSource{rows: [][]uint32{inputs}}
	cfg := DefaultConfig()
	cfg.Mode = ModeORCDOF
	a := runLayer(t, Layer{Name: "d", Struct: st, Acts: acts}, cfg)
	b := runLayer(t, Layer{Name: "d", Struct: st, Acts: acts}, cfg)
	if a.Cycles != b.Cycles || a.Energy != b.Energy {
		t.Fatal("simulation is not deterministic")
	}
}

func TestSamplingApproximatesFullRun(t *testing.T) {
	p := quant.Default()
	g := mapping.Default()
	st, _, _ := smallCase(7, 128, 16, p, g, 0.6, 0)
	r := xrand.New(11)
	var wins [][]uint32
	for w := 0; w < 40; w++ {
		v := make([]uint32, 128)
		for i := range v {
			if !r.Bernoulli(0.5) {
				v[i] = uint32(r.Intn(1 << 16))
			}
		}
		wins = append(wins, v)
	}
	acts := &sliceSource{rows: wins}
	layer := Layer{Name: "s", Struct: st, Acts: acts}
	cfg := DefaultConfig()
	cfg.Mode = ModeORCDOF
	cfg.MaxWindows = 0
	full := runLayer(t, layer, cfg)
	cfg.MaxWindows = 10
	sampledRes := runLayer(t, layer, cfg)
	if sampledRes.Sampled != 10 || full.Sampled != 40 {
		t.Fatalf("sampling bookkeeping wrong: %d/%d", sampledRes.Sampled, full.Sampled)
	}
	ratio := float64(sampledRes.Cycles) / float64(full.Cycles)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("sampled estimate off by %vx", ratio)
	}
}

func TestNetworkAggregation(t *testing.T) {
	p := quant.Default()
	g := mapping.Default()
	st1, _, in1 := smallCase(21, 64, 8, p, g, 0.5, 0.4)
	st2, _, in2 := smallCase(22, 96, 8, p, g, 0.5, 0.4)
	layers := []Layer{
		{Name: "l1", Struct: st1, Acts: &sliceSource{rows: [][]uint32{in1}}},
		{Name: "l2", Struct: st2, Acts: &sliceSource{rows: [][]uint32{in2}}},
	}
	cfg := DefaultConfig()
	res, err := SimulateNetworkContext(context.Background(), layers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 2 {
		t.Fatal("layer count")
	}
	if res.Cycles != res.Layers[0].Cycles+res.Layers[1].Cycles {
		t.Fatal("network cycles must sum layer cycles")
	}
	if res.Energy.Total() <= 0 || res.Time <= 0 {
		t.Fatal("degenerate network result")
	}
}

func TestCycleTimeTracksOUSize(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ADCBits() != 6 {
		t.Fatalf("ADC bits = %d, want 6 for 16-row OUs", cfg.ADCBits())
	}
	t16 := cfg.CycleTime()
	cfg.Geometry = cfg.Geometry.WithOU(128)
	if cfg.ADCBits() != 9 {
		t.Fatalf("ADC bits = %d, want 9 for 128-row OUs", cfg.ADCBits())
	}
	if cfg.CycleTime() <= t16 {
		t.Fatal("bigger OUs need slower cycles")
	}
}

// TestTensorSourceQuantization checks the real-activation adapter: zeros
// stay zero and window geometry matches im2col.
func TestTensorSourceQuantization(t *testing.T) {
	x := tensor.New(1, 4, 4)
	x.Set(1.0, 0, 0, 0)
	x.Set(0.5, 0, 1, 1)
	ts := NewTensorSource(x, 2, 1, 0, 8)
	if ts.Windows() != 9 {
		t.Fatalf("windows = %d", ts.Windows())
	}
	dst := make([]uint32, 4)
	ts.WindowCodes(0, dst) // window at (0,0): [x00, x01, x10, x11]
	if dst[0] != 255 {
		t.Fatalf("max activation code = %d, want 255", dst[0])
	}
	if dst[1] != 0 || dst[2] != 0 {
		t.Fatal("zero activations must quantize to zero codes")
	}
	if dst[3] == 0 || dst[3] > 128 {
		t.Fatalf("half-scale activation code = %d", dst[3])
	}
	// FC form: K = 0, single window over the flattened tensor.
	fc := NewTensorSource(x, 0, 0, 0, 8)
	if fc.Windows() != 1 {
		t.Fatal("FC source must expose one window")
	}
	full := make([]uint32, 16)
	fc.WindowCodes(0, full)
	if full[0] != 255 {
		t.Fatal("FC window codes wrong")
	}
}

func TestPipelineOverheadSmall(t *testing.T) {
	// For a dense batch, pipelined cycles ≈ OU events + fill/drain.
	p := quant.Default()
	g := mapping.Default()
	st, _, inputs := smallCase(31, 128, 16, p, g, 0, 0)
	acts := &sliceSource{rows: [][]uint32{inputs}}
	cfg := DefaultConfig()
	cfg.MaxWindows = 0
	lr := runLayer(t, Layer{Name: "p", Struct: st, Acts: acts}, cfg)
	if lr.Cycles < lr.OUEvents || lr.Cycles > lr.OUEvents+8 {
		t.Fatalf("pipelined cycles %d vs OU events %d", lr.Cycles, lr.OUEvents)
	}
}

// BenchmarkSimulateLayerModes measures the hot path: one 512-row,
// 64-logical-column layer with 16 windows under each mode.
func BenchmarkSimulateLayerModes(b *testing.B) {
	p := quant.Default()
	g := mapping.Default()
	st, _, _ := smallCase(99, 512, 64, p, g, 0.7, 0)
	r := xrand.New(7)
	var wins [][]uint32
	for w := 0; w < 16; w++ {
		v := make([]uint32, 512)
		for i := range v {
			if !r.Bernoulli(0.4) {
				v[i] = uint32(r.Intn(1 << 16))
			}
		}
		wins = append(wins, v)
	}
	layer := Layer{Name: "bench", Struct: st, Acts: &sliceSource{rows: wins}}
	for _, mode := range []Mode{ModeBaseline, ModeORC, ModeDOF, ModeORCDOF} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = 0
			for i := 0; i < b.N; i++ {
				runLayer(b, layer, cfg)
			}
		})
	}
}
