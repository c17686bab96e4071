// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §7 maps each benchmark to its experiment).
//
// Each iteration performs a complete quick-scope regeneration of the
// experiment (small networks, trimmed sweeps, capped window sampling) so
// `go test -bench=.` finishes in minutes; `cmd/srebench -all` runs the
// full-scope versions. Reported custom metrics carry the headline result
// of each figure so bench output doubles as a regression record.
package sre_test

import (
	"strconv"
	"strings"
	"testing"

	"sre"
	"sre/internal/experiments"
)

func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, MaxWindows: 12, Quick: true}
}

// runExperiment is the shared bench body.
func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	var table *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return table
}

func BenchmarkTable1HardwareConfig(b *testing.B) {
	t := runExperiment(b, "table1")
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

func BenchmarkTable2Workloads(b *testing.B) {
	t := runExperiment(b, "table2")
	b.ReportMetric(float64(len(t.Rows)), "networks")
}

func BenchmarkFig4DecompositionDensity(b *testing.B) {
	t := runExperiment(b, "fig4")
	b.ReportMetric(cellMetric(b, t.Rows[0][2]), "density@1b")
}

func BenchmarkFig5AccuracyVsWordlines(b *testing.B) {
	t := runExperiment(b, "fig5")
	// First data row is the clean accuracy of the first benchmark.
	b.ReportMetric(cellMetric(b, strings.TrimSuffix(t.Rows[0][3], "%")), "clean_acc_pct")
}

func BenchmarkFig17SpeedupSSL(b *testing.B) {
	t := runExperiment(b, "fig17")
	b.ReportMetric(cellMetric(b, t.Rows[0][5]), "orcdof_speedup_row0")
}

func BenchmarkFig18EnergySSL(b *testing.B) {
	t := runExperiment(b, "fig18")
	// Last row is orc+dof of the last network; column 2 is total energy.
	last := t.Rows[len(t.Rows)-1]
	b.ReportMetric(cellMetric(b, last[2]), "orcdof_energy_norm")
}

func BenchmarkFig19IndexStorage(b *testing.B) {
	t := runExperiment(b, "fig19")
	b.ReportMetric(cellMetric(b, t.Rows[0][2]), "kb_row0")
}

func BenchmarkFig20CompressionRatio(b *testing.B) {
	t := runExperiment(b, "fig20")
	b.ReportMetric(cellMetric(b, t.Rows[0][2]), "orc_ratio_row0")
}

func BenchmarkFig21EnergyVsOUSize(b *testing.B) {
	t := runExperiment(b, "fig21")
	last := t.Rows[len(t.Rows)-1]
	b.ReportMetric(cellMetric(b, last[2]), "baseline_norm_last")
}

func BenchmarkFig22BitsPerCell(b *testing.B) {
	t := runExperiment(b, "fig22")
	b.ReportMetric(cellMetric(b, t.Rows[0][2]), "speedup_row0")
}

func BenchmarkFig23NonSSL(b *testing.B) {
	t := runExperiment(b, "fig23")
	b.ReportMetric(cellMetric(b, t.Rows[0][3]), "orcdof_speedup_row0")
}

func BenchmarkFig24VsISAAC(b *testing.B) {
	t := runExperiment(b, "fig24")
	b.ReportMetric(cellMetric(b, t.Rows[0][1]), "time_vs_isaac_row0")
}

func BenchmarkSec72IndexingOverhead(b *testing.B) {
	t := runExperiment(b, "overhead")
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

func cellMetric(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		b.Fatalf("metric cell %q: %v", s, err)
	}
	return v
}

// ---- micro-benchmarks of the simulator itself ----

// BenchmarkSimulateLayerORCDOF measures the core simulator's throughput
// on one mid-size layer in the full SRE mode.
func BenchmarkSimulateLayerORCDOF(b *testing.B) {
	net, err := sre.Load("CIFAR-10", sre.WithMaxWindows(12))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Run(sre.ORCDOF); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- worker-pool scaling (the tentpole's acceptance benchmark) ----
//
// BenchmarkVGG16Sweep* run the full six-mode VGG-16 sweep — the hot
// path the parallel engine exists for — at explicit worker widths.
// With GOMAXPROCS≥4 the parallel variant should be ≥3× the serial one
// (chunk-claimed windows over the shared mask planes rebalance the
// skewed per-window DOF costs); both produce bit-identical results
// (see TestSerialParallelBitIdentical).

func benchVGG16Sweep(b *testing.B, workers int) {
	b.Helper()
	net, err := sre.Load("VGG-16", sre.WithPrune(sre.SSL),
		sre.WithMaxWindows(12), sre.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := net.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(sre.Modes()) {
			b.Fatal("missing mode results")
		}
	}
}

func BenchmarkVGG16SweepSerial(b *testing.B)   { benchVGG16Sweep(b, 1) }
func BenchmarkVGG16SweepParallel(b *testing.B) { benchVGG16Sweep(b, 0) }

// BenchmarkLoadNetwork measures workload synthesis + structure building.
func BenchmarkLoadNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sre.Load("MNIST"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIndexBits exercises the §6 index-width design-choice
// ablation (zero-padding loss vs storage).
func BenchmarkAblationIndexBits(b *testing.B) {
	t := runExperiment(b, "ablation-indexbits")
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

// BenchmarkAblationOCC exercises the §4.1 ORC-vs-OCC design-choice
// ablation (row vs column compression, Fig. 10 exclusivity).
func BenchmarkAblationOCC(b *testing.B) {
	t := runExperiment(b, "ablation-occ")
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

// BenchmarkAblationBuffer exercises the §5.3 buffer-sizing ablation.
func BenchmarkAblationBuffer(b *testing.B) {
	t := runExperiment(b, "ablation-buffer")
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

// BenchmarkAblationReplication exercises the ISAAC-style replication
// re-weighting of the Fig. 17 headline.
func BenchmarkAblationReplication(b *testing.B) {
	t := runExperiment(b, "ablation-replication")
	b.ReportMetric(float64(len(t.Rows)), "rows")
}
