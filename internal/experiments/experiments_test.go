package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sre"
	"sre/internal/core"
	"sre/internal/mapping"
	"sre/internal/metrics"
	"sre/internal/quant"
	"sre/internal/workload"
)

// quick returns fast options for CI-grade runs.
func quick() Options { return Options{Seed: 1, MaxWindows: 12, Quick: true} }

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("have %d experiments, want 18", len(ids))
	}
	if ids[0] != "table1" || ids[len(ids)-1] != "ablation-replication" {
		t.Fatalf("ordering wrong: %v", ids)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", quick()); err == nil {
		t.Fatal("accepted unknown experiment")
	}
	bad := quick()
	bad.MaxWindows = -1
	if _, err := Run("fig17", bad); err == nil {
		t.Fatal("accepted a negative window cap")
	}
}

// TestEveryExperimentRunsQuick executes all experiments in quick mode and
// checks basic table integrity. This is the end-to-end smoke for the
// whole reproduction pipeline.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes seconds")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			table, err := Run(id, quick())
			if err != nil {
				t.Fatal(err)
			}
			if table.ID != id {
				t.Fatalf("table ID %q", table.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("no rows produced")
			}
			out := table.Format()
			if !strings.Contains(out, id) {
				t.Fatal("Format misses the experiment ID")
			}
		})
	}
}

// TestMaxWindowsZeroSimulatesAll pins that Options.MaxWindows means
// what sre.WithMaxWindows means: 0 disables sampling, so every layer of
// every mode is simulated at all its windows. Sampling never reads more
// windows than a layer has, so equal per-mode totals mean Sampled ==
// Windows on every layer.
func TestMaxWindowsZeroSimulatesAll(t *testing.T) {
	opt := Options{Seed: 1, MaxWindows: 0, Quick: true, Metrics: metrics.NewRegistry()}
	if _, err := Run("fig17", opt); err != nil {
		t.Fatal(err)
	}
	snap := opt.Metrics.Snapshot()
	for _, m := range sslModes {
		windows := snap.Counters[fmt.Sprintf("sre_core_windows_total{mode=%q}", m)]
		simulated := snap.Counters[fmt.Sprintf("sre_core_windows_simulated_total{mode=%q}", m)]
		if windows == 0 || simulated != windows {
			t.Fatalf("%v: simulated %d of %d windows, want all", m, simulated, windows)
		}
	}
}

// cell parses a table cell as float, stripping trailing % and x.
func cellFloat(t *testing.T, s string) float64 {
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSpace(s), "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// TestFig17Shape checks the headline result's shape on the quick set:
// every mode speeds up (≥ ~1), DOF > ORC-family on the small nets, and
// ORC+DOF dominates.
func TestFig17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	table, err := Run("fig17", quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		naive := cellFloat(t, row[1])
		recom := cellFloat(t, row[2])
		orc := cellFloat(t, row[3])
		dof := cellFloat(t, row[4])
		both := cellFloat(t, row[5])
		if naive < 0.99 || recom < 0.99 || orc < 0.99 {
			t.Fatalf("%s: a compression mode slowed things down: %v", row[0], row)
		}
		if !(both >= dof && both >= orc) {
			t.Fatalf("%s: orc+dof must dominate: %v", row[0], row)
		}
		if dof < 2 {
			t.Fatalf("%s: DOF speedup %v implausibly low", row[0], dof)
		}
	}
}

// TestFig18Shape: every sparsity mode's ORC+DOF energy is below baseline
// and eDRAM share grows for ORC-based modes.
func TestFig18Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	table, err := Run("fig18", quick())
	if err != nil {
		t.Fatal(err)
	}
	byNet := map[string]map[string][]float64{}
	for _, row := range table.Rows {
		net, mode := row[0], row[1]
		if byNet[net] == nil {
			byNet[net] = map[string][]float64{}
		}
		byNet[net][mode] = []float64{cellFloat(t, row[2]), cellFloat(t, row[3])}
	}
	for net, modes := range byNet {
		if modes["orc+dof"][0] >= 1 {
			t.Fatalf("%s: orc+dof energy not below baseline", net)
		}
		if modes["orc+dof"][1] <= modes["dof"][1] {
			t.Fatalf("%s: orc+dof must spend more eDRAM than dof", net)
		}
	}
}

// TestFig20Shape: compression ratio must not decrease as the OU shrinks,
// and must never exceed the ideal bound.
func TestFig20Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	table, err := Run("fig20", quick())
	if err != nil {
		t.Fatal(err)
	}
	prev := map[string]float64{}
	ideal := map[string]float64{}
	for _, row := range table.Rows {
		net := row[0]
		ratio := cellFloat(t, row[1+1])
		if row[4] != "" {
			ideal[net] = cellFloat(t, row[4])
		}
		if p, ok := prev[net]; ok && ratio < p-1e-9 {
			t.Fatalf("%s: ratio decreased with smaller OU", net)
		}
		prev[net] = ratio
		if ratio > ideal[net]+1e-9 {
			t.Fatalf("%s: ORC ratio %v above ideal %v", net, ratio, ideal[net])
		}
	}
}

// TestFig5Shape: accuracy must be monotonically non-increasing in the
// wordline count (within MC tolerance) and better cells must never be
// significantly worse.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	table, err := Run("fig5", quick())
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ bench, cell string }
	acc := map[key]map[int]float64{}
	for _, row := range table.Rows {
		if row[1] == "clean" {
			if cellFloat(t, row[3]) < 70 {
				t.Fatalf("%s failed to train: clean acc %s", row[0], row[3])
			}
			continue
		}
		k := key{row[0], row[1]}
		if acc[k] == nil {
			acc[k] = map[int]float64{}
		}
		n, _ := strconv.Atoi(row[2])
		acc[k][n] = cellFloat(t, row[3])
	}
	for k, m := range acc {
		if m[128] > m[8]+6 { // 6pp Monte-Carlo tolerance
			t.Fatalf("%v: accuracy rose with more wordlines: %v", k, m)
		}
	}
	// The proxy's baseline cell must collapse at 128 wordlines.
	if acc[key{"CaffeNet(proxy)", "(Rb, sb)"}][128] > 10 {
		t.Fatal("large-net proxy did not collapse at full-crossbar activation")
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tb.AddRow("yyyy", "z")
	out := tb.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("formatted lines: %v", lines)
	}
	if !strings.HasPrefix(lines[1], "a    ") {
		t.Fatalf("header not padded: %q", lines[1])
	}
}

// TestExperimentDeterminism: the same options must reproduce identical
// tables (the whole pipeline is seeded).
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, id := range []string{"fig17", "fig20"} {
		a, err := Run(id, quick())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, quick())
		if err != nil {
			t.Fatal(err)
		}
		if a.Format() != b.Format() {
			t.Fatalf("%s differs across identical runs", id)
		}
	}
}

// TestGoldenConstantTables snapshots the experiments that derive purely
// from the paper's published constants (no simulation), guarding against
// accidental drift in the hardware model. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenConstantTables -update
var update = flag.Bool("update", false, "rewrite golden files")

func TestGoldenConstantTables(t *testing.T) {
	for _, id := range []string{"table1", "overhead"} {
		table, err := Run(id, Options{Seed: 1, MaxWindows: 12, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		got := table.Format()
		path := filepath.Join("testdata", id+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if got != string(want) {
			t.Fatalf("%s drifted from golden.\n-- got --\n%s\n-- want --\n%s", id, got, want)
		}
	}
}

// TestORCDOFMatchesLibrary pins that the experiments run the library's
// simulator configuration: MNIST's orc+dof result, built and simulated
// the way every figure does it, equals sre.Load("MNIST")'s
// Run(ORCDOF) field for field — cycles, time, and every energy
// component including the interconnect's, per layer and in total.
func TestORCDOFMatchesLibrary(t *testing.T) {
	opt := DefaultOptions()
	spec, err := workload.SpecByName("MNIST")
	if err != nil {
		t.Fatal(err)
	}
	p, g := quant.Default(), mapping.Default()
	b, err := build(spec, workload.SSL, p, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simulate(b, core.ModeORCDOF, p, g, spec.IndexBits, opt)
	if err != nil {
		t.Fatal(err)
	}
	net, err := sre.Load("MNIST", sre.WithSeed(opt.Seed), sre.WithMaxWindows(opt.MaxWindows))
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Run(sre.ORCDOF)
	if err != nil {
		t.Fatal(err)
	}
	if got.Energy.Interconnect == 0 {
		t.Fatal("experiments' orc+dof energy leaves the interconnect out")
	}
	if got.Cycles != want.Cycles || got.Time != want.Seconds || sre.Breakdown(got.Energy) != want.Energy ||
		len(got.Layers) != len(want.Layers) {
		t.Fatalf("experiments orc+dof %d cycles, %v s, %+v; library %d cycles, %v s, %+v",
			got.Cycles, got.Time, got.Energy, want.Cycles, want.Seconds, want.Energy)
	}
	for i, lr := range got.Layers {
		w := want.Layers[i]
		if lr.Name != w.Name || lr.Cycles != w.Cycles || lr.Time != w.Seconds || sre.Breakdown(lr.Energy) != w.Energy {
			t.Fatalf("layer %d: experiments %+v, library %+v", i, lr, w)
		}
	}
}
