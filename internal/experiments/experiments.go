// Package experiments regenerates every table and figure of the paper's
// evaluation (§6–§7). Each experiment returns a typed Table that
// cmd/srebench prints, the benchmarks exercise, and EXPERIMENTS.md
// records.
//
// Experiment IDs: table1, table2, fig4, fig5, fig17, fig18, fig19,
// fig20, fig21, fig22, fig23, fig24, overhead.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"sre/internal/textplot"

	"sre/internal/core"
	"sre/internal/mapping"
	"sre/internal/metrics"
	"sre/internal/parallel"
	"sre/internal/quant"
	"sre/internal/snapshot"
	"sre/internal/workload"
)

// Options tune experiment scope.
type Options struct {
	Seed       uint64
	MaxWindows int  // per-layer window sampling cap (0 = all windows)
	Quick      bool // trim sweeps for fast CI/bench runs
	Workers    int  // simulation worker-pool width (0 = GOMAXPROCS)
	// Metrics, when non-nil, collects run observability across every
	// simulation an experiment performs (see internal/metrics).
	Metrics *metrics.Registry
	// SnapshotDir, when non-empty, consults (and populates) a
	// built-network snapshot directory before building, so repeated
	// srebench invocations skip workload synthesis entirely.
	SnapshotDir string
}

// DefaultOptions runs every experiment at full scope.
func DefaultOptions() Options { return Options{Seed: 1, MaxWindows: 48} }

// Table is a regenerated table/figure.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Charts optionally renders the figure's headline series as text
	// bar charts (printed after the table).
	Charts []textplot.Chart
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, c := range t.Charts {
		b.WriteByte('\n')
		b.WriteString(c.Render(48))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// runner is one experiment implementation.
type runner func(Options) (*Table, error)

var registry = map[string]runner{
	"table1":               Table1,
	"table2":               Table2,
	"fig4":                 Fig4,
	"fig5":                 Fig5,
	"fig17":                Fig17,
	"fig18":                Fig18,
	"fig19":                Fig19,
	"fig20":                Fig20,
	"fig21":                Fig21,
	"fig22":                Fig22,
	"fig23":                Fig23,
	"fig24":                Fig24,
	"pr10-wss":             WSSComposability,
	"overhead":             Overhead,
	"ablation-indexbits":   AblationIndexBits,
	"ablation-occ":         AblationOCC,
	"ablation-buffer":      AblationBuffer,
	"ablation-replication": AblationReplication,
}

// IDs lists experiment identifiers in presentation order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return orderKey(ids[i]) < orderKey(ids[j]) })
	return ids
}

func orderKey(id string) int {
	order := []string{"table1", "table2", "fig4", "fig5", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "pr10-wss",
		"overhead",
		"ablation-indexbits", "ablation-occ", "ablation-buffer",
		"ablation-replication"}
	for i, v := range order {
		if v == id {
			return i
		}
	}
	return len(order)
}

// Run executes the named experiment.
func Run(id string, opt Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if opt.MaxWindows < 0 {
		return nil, fmt.Errorf("experiments: max windows %d is negative (0 = every window)", opt.MaxWindows)
	}
	return r(opt)
}

// ---- shared machinery ----

// specsFor returns the evaluated networks, trimmed in quick mode.
func specsFor(opt Options) []workload.Spec {
	specs := workload.Specs()
	if opt.Quick {
		return specs[:2] // MNIST + CIFAR-10
	}
	return specs
}

// builtKey memoizes network builds within a process: experiments share
// identical builds (same prune mode, quantization, geometry, seed).
type builtKey struct {
	name     string
	mode     workload.PruneMode
	p        quant.Params
	g        mapping.Geometry
	seed     uint64
	sliceCap int
}

var (
	builtMu    sync.Mutex
	builtCache = map[builtKey]*workload.Built{}
)

// build returns a cached simulator-ready network, consulting the
// snapshot directory (when opt names one) before paying for a build.
func build(spec workload.Spec, mode workload.PruneMode, p quant.Params, g mapping.Geometry, opt Options) (*workload.Built, error) {
	key := builtKey{spec.Name, mode, p, g, opt.Seed, spec.SliceCap}
	builtMu.Lock()
	b, ok := builtCache[key]
	builtMu.Unlock()
	if ok {
		return b, nil
	}
	var err error
	if opt.SnapshotDir != "" {
		b, _, err = snapshot.LoadOrBuild(opt.SnapshotDir,
			snapshot.Key{Spec: spec, Prune: mode, Quant: p, Geom: g, Seed: opt.Seed})
	} else {
		b, err = spec.Build(mode, p, g, opt.Seed)
	}
	if err != nil {
		return nil, err
	}
	builtMu.Lock()
	// Keep the cache bounded: drop everything if it grows large (sweeps
	// over OU sizes/cell bits would otherwise pin many VGG-size builds).
	if len(builtCache) > 24 {
		builtCache = map[builtKey]*workload.Built{}
	}
	builtCache[key] = b
	builtMu.Unlock()
	return b, nil
}

// simulate runs one built network in one mode, sharding the simulation
// over opt's worker width.
func simulate(b *workload.Built, mode core.Mode, p quant.Params, g mapping.Geometry, indexBits int, opt Options) (core.NetworkResult, error) {
	return simulateOn(b, mode, p, g, indexBits, opt, nil)
}

// simulateOn is simulate drawing from a shared pool (nil = own pool).
func simulateOn(b *workload.Built, mode core.Mode, p quant.Params, g mapping.Geometry, indexBits int, opt Options, pool *parallel.Pool) (core.NetworkResult, error) {
	cfg := coreConfig(mode, p, g, indexBits, opt)
	cfg.Pool = pool
	return core.SimulateNetworkContext(context.Background(), b.Layers, cfg)
}

// coreConfig is the simulator configuration of every experiment run:
// core.DefaultConfig's energy and interconnect models, the same the
// library's runs use, at the given design point, mode and index width,
// with opt's sampling, workers and metrics.
func coreConfig(mode core.Mode, p quant.Params, g mapping.Geometry, indexBits int, opt Options) core.Config {
	cfg := core.DefaultConfig()
	cfg.Geometry, cfg.Quant, cfg.Mode, cfg.IndexBits = g, p, mode, indexBits
	cfg.MaxWindows, cfg.Workers, cfg.Metrics = opt.MaxWindows, opt.Workers, opt.Metrics
	return cfg
}

// sslModes are the Fig. 17/18 comparison set, baseline first.
var sslModes = []core.Mode{
	core.ModeBaseline, core.ModeNaive, core.ModeReCom,
	core.ModeORC, core.ModeDOF, core.ModeORCDOF,
}

// modeResults runs a built network through the paper's six core modes, overlapping
// the modes on one shared worker pool.
func modeResults(b *workload.Built, spec workload.Spec, p quant.Params, g mapping.Geometry, opt Options) (map[string]core.NetworkResult, error) {
	pool := parallel.New(opt.Workers)
	res := make([]core.NetworkResult, len(sslModes))
	errs := make([]error, len(sslModes))
	pool.For(context.Background(), len(sslModes), func(start, end int) {
		for i := start; i < end; i++ {
			res[i], errs[i] = simulateOn(b, sslModes[i], p, g, spec.IndexBits, opt, pool)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make(map[string]core.NetworkResult, len(sslModes))
	for i, m := range sslModes {
		out[m.String()] = res[i]
	}
	return out, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
