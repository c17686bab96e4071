package sre

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sre/internal/core"
	"sre/internal/energy"
	"sre/internal/noc"
	"sre/internal/workload"
)

// separateSweep runs one mode over the network with the given
// activation seed substituted the long way — fresh layer copies, fresh
// mask-plane caches, a plain SimulateNetworkContext — the semantics
// RunBatchContext promises to be bit-identical to.
func separateSweep(t *testing.T, net *Network, mode Mode, actSeed uint64, workers int) core.NetworkResult {
	t.Helper()
	layers := make([]core.Layer, len(net.built.Layers))
	copy(layers, net.built.Layers)
	if actSeed != 0 && actSeed != net.cfg.Seed {
		srcs := net.spec.VariantSources(net.built.Layers, actSeed)
		for i := range layers {
			layers[i].Acts = srcs[i]
			layers[i].Masks = core.NewMaskPlanes()
		}
	}
	cm, err := mode.coreMode()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Geometry:   net.cfg.geometry(),
		Quant:      net.cfg.params(),
		Mode:       cm,
		IndexBits:  net.indexBits(),
		MaxWindows: net.cfg.MaxWindows,
		Workers:    workers,
		Energy:     energy.Default(),
		NoC:        noc.Default(),
	}
	res, err := core.SimulateNetworkContext(context.Background(), layers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunBatchMatchesSeparateSweeps is the batching tentpole's
// bit-identity guarantee: every cell of the [set][mode] result grid
// must equal the same mode simulated alone with that set's activations
// substituted — including the static modes the batch simulates once
// and replicates, and the DOF modes that share one flattened phase 1.
func TestRunBatchMatchesSeparateSweeps(t *testing.T) {
	net, err := Build("batch", "conv3x8p1-pool-conv3x8p1-pool-32-5", []int{1, 16, 16},
		smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	acts := []ActivationSet{{}, {ActSeed: 12345}, {ActSeed: 777}}
	modes := Modes()
	grid, err := net.RunBatchContext(context.Background(), modes, acts, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(acts) || len(grid[0]) != len(modes) {
		t.Fatalf("grid is %dx%d, want %dx%d", len(grid), len(grid[0]), len(acts), len(modes))
	}
	for j, a := range acts {
		for i, m := range modes {
			got := grid[j][i]
			if got.Mode != m {
				t.Fatalf("grid[%d][%d].Mode = %v, want %v", j, i, got.Mode, m)
			}
			want := separateSweep(t, net, m, a.ActSeed, 4)
			if got.Cycles != want.Cycles {
				t.Errorf("set %d (seed %d) mode %v: batched cycles %d != separate %d",
					j, a.ActSeed, m, got.Cycles, want.Cycles)
			}
			if got.Energy != Breakdown(want.Energy) {
				t.Errorf("set %d (seed %d) mode %v: batched energy %+v != separate %+v",
					j, a.ActSeed, m, got.Energy, want.Energy)
			}
		}
	}
	// Distinct seeds must actually change the activation-dependent
	// modes (a variant that silently equals the base would make the
	// identity checks above vacuous).
	di := -1
	for i, m := range modes {
		if m == DOF {
			di = i
		}
	}
	if grid[1][di].Cycles == grid[0][di].Cycles && grid[1][di].Energy == grid[0][di].Energy {
		t.Error("variant seed produced DOF results identical to the base activations")
	}
}

// TestReadsActivationsMatchesSeedDependence ties Mode.ReadsActivations,
// which lets sreserved share one result-cache cell among a static mode's
// act_seeds, to the simulator: each mode run alone the long way under
// two activation seeds gives equal results exactly when the predicate
// says it does not read activations.
func TestReadsActivationsMatchesSeedDependence(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		a, b := separateSweep(t, net, m, 41, 2), separateSweep(t, net, m, 42, 2)
		if same := reflect.DeepEqual(a, b); same == m.ReadsActivations() {
			t.Errorf("mode %v: ReadsActivations() = %v, but results under two seeds equal = %v",
				m, m.ReadsActivations(), same)
		}
	}
	if Mode(len(Modes())).ReadsActivations() {
		t.Error("an unregistered mode reads activations")
	}
}

// TestVariantSourcesIdentity pins the seed-derivation contract the
// batch API builds on: re-deriving the activation sources from the
// build seed itself reproduces the built-in sources field-for-field —
// xrand.Split is a pure function of (parent state, label), so the
// per-layer stream depends only on (seed, spec name, layer path).
func TestVariantSourcesIdentity(t *testing.T) {
	net, err := Load("MNIST", append(smallOpts(), WithSeed(97))...)
	if err != nil {
		t.Fatal(err)
	}
	srcs := net.spec.VariantSources(net.built.Layers, 97)
	for i, l := range net.built.Layers {
		sa, ok := l.Acts.(*workload.SyntheticActs)
		if !ok {
			t.Fatalf("layer %d source is %T, want *workload.SyntheticActs", i, l.Acts)
		}
		va := srcs[i].(*workload.SyntheticActs)
		if *va != *sa {
			t.Errorf("layer %d: variant from build seed %+v != built-in %+v", i, *va, *sa)
		}
	}
	// And a different seed must change (only) the stream root.
	for i, src := range net.spec.VariantSources(net.built.Layers, 98) {
		sa := net.built.Layers[i].Acts.(*workload.SyntheticActs)
		va := src.(*workload.SyntheticActs)
		if va.Seed == sa.Seed {
			t.Errorf("layer %d: variant seed did not change the stream root", i)
		}
		va2 := *va
		va2.Seed = sa.Seed
		if va2 != *sa {
			t.Errorf("layer %d: variant changed more than the stream root: %+v vs %+v", i, *va, *sa)
		}
	}
}

// TestRunBatchWorkerInvariance extends the repo's determinism
// guarantee to the batched path: the whole [set][mode] grid must be
// bit-identical at every worker-pool width.
func TestRunBatchWorkerInvariance(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	acts := []ActivationSet{{}, {ActSeed: 5}, {ActSeed: 6}}
	modes := []Mode{Baseline, DOF, ORCDOF}
	serial, err := net.RunBatchContext(context.Background(), modes, acts, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par, err := net.RunBatchContext(context.Background(), modes, acts, WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		for j := range acts {
			for i := range modes {
				if par[j][i].Cycles != serial[j][i].Cycles || par[j][i].Energy != serial[j][i].Energy {
					t.Errorf("workers=%d set %d mode %v diverged from serial", w, j, modes[i])
				}
			}
		}
	}
}

// TestRunBatchProgress pins the batched progress contract: each layer
// reports exactly once, with the first set's LayerResult (here a
// variant seed, so it differs from the network's own activations), and
// LayersDone counts up to LayerCount.
func TestRunBatchProgress(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var events []Progress
	grid, err := net.RunBatchContext(context.Background(), []Mode{ORCDOF},
		[]ActivationSet{{ActSeed: 77}, {}},
		WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != net.LayerCount() {
		t.Fatalf("%d progress events for %d layers", len(events), net.LayerCount())
	}
	seen := make(map[int]bool)
	for i, ev := range events {
		if seen[ev.LayerIndex] {
			t.Fatalf("layer %d reported twice", ev.LayerIndex)
		}
		seen[ev.LayerIndex] = true
		if ev.LayersDone != i+1 || ev.LayerCount != net.LayerCount() || ev.Mode != ORCDOF {
			t.Fatalf("event %d: %+v", i, ev)
		}
		if want := grid[0][0].Layers[ev.LayerIndex]; ev.Layer != want {
			t.Fatalf("layer %d: progress reports %+v, first set's result is %+v", ev.LayerIndex, ev.Layer, want)
		}
	}
	if grid[0][0].Cycles == grid[1][0].Cycles {
		t.Fatal("the variant set matched the own activations; the first-set check is vacuous")
	}
}

// TestRunBatchMeteredOccupancy pins the batched DOF engine's metering
// over a mix of own and variant activation sets. With sampling off
// every simulated OU is observed once, so each DOF mode's occupancy
// count must equal its OU activations. Every series of a DOF mode must
// also equal that of the same sets run one at a time into one
// registry: the batch meters each input exactly as a single-set run
// does. The rest of the snapshot differs by design: a batch shares its
// plan, code- and mask-cache lookups and its arena checkouts across
// sets, simulates a static mode once for all of them, and the
// sre_parallel_* gauges record scheduling.
func TestRunBatchMeteredOccupancy(t *testing.T) {
	net, err := Build("batch", "conv3x8p1-pool-conv3x8p1-pool-32-5", []int{1, 16, 16},
		smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	acts := []ActivationSet{{}, {ActSeed: 12345}, {ActSeed: net.cfg.Seed}, {ActSeed: 777}}
	modes := Modes()
	noSampling := WithMaxWindows(0)
	batched := NewMetrics()
	if _, err := net.RunBatchContext(ctx, modes, acts, noSampling, WithMetrics(batched)); err != nil {
		t.Fatal(err)
	}
	alone := NewMetrics()
	for _, a := range acts {
		if _, err := net.RunBatchContext(ctx, modes, []ActivationSet{a}, noSampling, WithMetrics(alone)); err != nil {
			t.Fatal(err)
		}
	}
	got, want := batched.Snapshot(), alone.Snapshot()
	dofModes := 0
	for _, m := range modes {
		cm, err := m.coreMode()
		if err != nil {
			t.Fatal(err)
		}
		if !cm.DOF {
			continue
		}
		dofModes++
		label := fmt.Sprintf("{mode=%q}", m.String())
		occ := got.Histograms["sre_core_ou_occupancy"+label]
		ous := got.Counters["sre_core_ou_activations_total"+label]
		if ous == 0 || occ.Count != ous {
			t.Errorf("%v: occupancy count %d != OU activations %d", m, occ.Count, ous)
		}
		names := map[string]bool{}
		for _, name := range append(got.Names(), want.Names()...) {
			if strings.HasSuffix(name, label) {
				names[name] = true
			}
		}
		if len(names) < 10 {
			t.Errorf("%v: only %d series carry its label", m, len(names))
		}
		for name := range names {
			if got.Counters[name] != want.Counters[name] ||
				!reflect.DeepEqual(got.Histograms[name], want.Histograms[name]) {
				t.Errorf("%s: batched %d %+v, sets alone %d %+v", name,
					got.Counters[name], got.Histograms[name], want.Counters[name], want.Histograms[name])
			}
		}
	}
	if dofModes == 0 {
		t.Fatal("no DOF mode in Modes()")
	}
}

// TestRunBatchValidation pins the argument contract.
func TestRunBatchValidation(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RunBatchContext(context.Background(), nil, []ActivationSet{{}}); err == nil {
		t.Error("accepted an empty mode set")
	}
	if _, err := net.RunBatchContext(context.Background(), []Mode{DOF}, nil); err == nil {
		t.Error("accepted an empty activation-set list")
	}
	if _, err := net.RunBatchContext(context.Background(), []Mode{DOF},
		[]ActivationSet{{}}, WithSeed(3)); err == nil {
		t.Error("accepted a build-scoped option at run time")
	}
}

// BenchmarkBatchedSweep measures RunBatchContext's sub-linearity claim
// over four activation sets (the resident network's own activations
// plus three variant seeds):
//
//   - Single: one sweep of the network's own activations — the
//     fully-cached steady-state floor.
//   - Separate4: the four sets swept independently, one batch call per
//     set — what sreserved pays for four requests, each swept alone.
//   - Batched4: the four sets as one batched sweep.
//
// Sub-linearity is Batched4 ns/op < Separate4 ns/op (the batch shares
// the plans, planes, arenas, and the entire static-mode simulation
// across sets), with Single as the all-shared lower bound.
func BenchmarkBatchedSweep(b *testing.B) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	modes := []Mode{Baseline, ORC, DOF, ORCDOF}
	sets := []ActivationSet{{}, {ActSeed: 11}, {ActSeed: 12}, {ActSeed: 13}}
	ctx := context.Background()
	b.Run("Single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := net.RunModesContext(ctx, modes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Separate4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, set := range sets {
				if _, err := net.RunBatchContext(ctx, modes, []ActivationSet{set}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Batched4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := net.RunBatchContext(ctx, modes, sets); err != nil {
				b.Fatal(err)
			}
		}
	})
}
