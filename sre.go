// Package sre is the public API of the Sparse ReRAM Engine reproduction
// (Yang et al., "Sparse ReRAM Engine: Joint Exploration of Activation and
// Weight Sparsity in Compressed Neural Networks", ISCA 2019).
//
// The library simulates DNN inference on a practical, OU-based
// ReRAM accelerator and reports cycles, time and energy under the
// paper's sparsity-exploitation modes:
//
//	net, _ := sre.Load("VGG-16", sre.WithOU(16))
//	res, _ := net.RunContext(ctx, sre.ORCDOF)
//
// Networks come from the paper's Table 2 (Load) or from custom
// topology strings (Build); both accept functional options. Runs are
// sharded over a worker pool (WithWorkers) with bit-identical results
// at any width, and RunContext makes long sweeps cancellable and
// observable (WithProgress). See DESIGN.md for the model and
// EXPERIMENTS.md for the paper-vs-measured record.
//
// Built networks persist: Network.WriteTo serializes everything a
// build produces into one versioned artifact, OpenSnapshot loads it
// back bit-identically, and WithSnapshotDir turns Load/Build into a
// content-addressed cache over a snapshot directory (DESIGN.md §6).
package sre

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"sre/internal/compress"
	"sre/internal/core"
	"sre/internal/isaac"
	"sre/internal/mapping"
	"sre/internal/metrics"
	"sre/internal/parallel"
	"sre/internal/quant"
	"sre/internal/reram"
	"sre/internal/snapshot"
	"sre/internal/workload"
)

// Mode is a sparsity-exploitation configuration (paper §6, plus the
// weight bit-slice extensions).
type Mode int

const (
	// Baseline exploits no sparsity: every OU of every mapped weight
	// executes for every input bit slice.
	Baseline Mode = iota
	// Naive removes crossbar rows whose cells are all zero.
	Naive
	// ReCom removes whole weight-matrix rows (ReCom [24]).
	ReCom
	// ORC is OU-based row compression: per-column-group zero rows are
	// removed, with delta-encoded input indexes.
	ORC
	// DOF is Dynamic OU Formation: only wordlines with non-zero input
	// bits are activated, gathered into virtual OUs at run time.
	DOF
	// ORCDOF combines ORC and DOF — the paper's full Sparse ReRAM Engine.
	ORCDOF
	// WSS adds weight bit-slice sparsity: weights map slice-major so
	// each OU column group holds same-significance bit slices of
	// neighbouring weights, per-group zero rows are removed exactly as
	// ORC does, and a group whose whole slice is zero is elided —
	// no OUs, no driven wordlines, no eDRAM fetch.
	WSS
	// ORCDOFWSS composes all three sparsity axes: per-group row
	// compression, weight-slice elision, and Dynamic OU Formation.
	ORCDOFWSS
)

// modeDesc is one row of the mode registry: the canonical wire spelling
// and the core simulator configuration a public Mode stands for.
type modeDesc struct {
	name string
	core core.Mode
}

// modeTable is the central mode registry, indexed by Mode. Everything
// mode-dispatched in this package — Modes, String, ParseMode,
// MarshalText, coreMode — derives from it, so adding a mode is exactly
// one Mode constant plus one descriptor row; there are no parallel
// switch chains to keep in sync. Existing rows must keep their position
// and spelling: both are wire-visible (served JSON, CLI flags) and
// pinned by TestModesRegistryPinned.
var modeTable = [...]modeDesc{
	Baseline:  {"baseline", core.ModeBaseline},
	Naive:     {"naive", core.ModeNaive},
	ReCom:     {"recom", core.ModeReCom},
	ORC:       {"orc", core.ModeORC},
	DOF:       {"dof", core.ModeDOF},
	ORCDOF:    {"orc+dof", core.ModeORCDOF},
	WSS:       {"wss", core.ModeWSS},
	ORCDOFWSS: {"orc+dof+wss", core.ModeORCDOFWSS},
}

// valid reports whether m is a registry entry.
func (m Mode) valid() bool { return m >= 0 && int(m) < len(modeTable) }

// Modes lists every mode in the paper's presentation order (the
// registry order; bit-slice extensions follow the paper's six).
func Modes() []Mode {
	out := make([]Mode, len(modeTable))
	for i := range out {
		out[i] = Mode(i)
	}
	return out
}

func (m Mode) String() string {
	if !m.valid() {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return modeTable[m].name
}

// modeNames returns every canonical spelling joined with "|", for error
// messages.
func modeNames() string {
	names := make([]string, len(modeTable))
	for i := range modeTable {
		names[i] = modeTable[i].name
	}
	return strings.Join(names, "|")
}

// ParseMode parses a Mode's canonical spelling ("baseline", "naive",
// "recom", "orc", "dof", "orc+dof", "wss", "orc+dof+wss"),
// case-insensitively. It is the inverse of Mode.String and the single
// spelling shared by the CLIs and the sreserved wire format.
func ParseMode(s string) (Mode, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for i := range modeTable {
		if modeTable[i].name == name {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("sre: unknown mode %q (want %s)", s, modeNames())
}

// MarshalText implements encoding.TextMarshaler with the canonical
// spelling, so Mode fields JSON-encode as strings ("orc+dof") rather
// than bare ints.
func (m Mode) MarshalText() ([]byte, error) {
	if !m.valid() {
		return nil, fmt.Errorf("sre: cannot marshal unknown mode %d", int(m))
	}
	return []byte(modeTable[m].name), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseMode.
func (m *Mode) UnmarshalText(text []byte) error {
	v, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ReadsActivations reports whether m's results depend on activation
// values, and so on an ActivationSet's ActSeed: true exactly for the
// modes with Dynamic OU Formation (dof, orc+dof, orc+dof+wss). The
// static modes count every OU of their weight plans whatever the inputs
// hold, so their results are the same under every seed.
func (m Mode) ReadsActivations() bool {
	return m.valid() && modeTable[m].core.DOF
}

func (m Mode) coreMode() (core.Mode, error) {
	if !m.valid() {
		return core.Mode{}, fmt.Errorf("sre: unknown mode %d", int(m))
	}
	return modeTable[m].core, nil
}

// PruneStyle selects the synthetic pruning the weights imitate.
type PruneStyle int

const (
	// SSL imitates structured sparsity learning [45] — the paper's main
	// configuration.
	SSL PruneStyle = iota
	// GSL imitates SkimCaffe's unstructured guided sparsity learning
	// (the paper's Fig. 23 non-SSL study).
	GSL
	// Dense leaves the weights unpruned.
	Dense
)

// PruneStyles lists every pruning style.
func PruneStyles() []PruneStyle { return []PruneStyle{SSL, GSL, Dense} }

func (s PruneStyle) String() string {
	switch s {
	case SSL:
		return "ssl"
	case GSL:
		return "gsl"
	case Dense:
		return "dense"
	}
	return fmt.Sprintf("prune(%d)", int(s))
}

// ParsePruneStyle parses a PruneStyle's canonical spelling ("ssl",
// "gsl", "dense"), case-insensitively.
func ParsePruneStyle(s string) (PruneStyle, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, st := range PruneStyles() {
		if st.String() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("sre: unknown prune style %q (want ssl|gsl|dense)", s)
}

// MarshalText implements encoding.TextMarshaler with the canonical
// spelling.
func (s PruneStyle) MarshalText() ([]byte, error) {
	if s < SSL || s > Dense {
		return nil, fmt.Errorf("sre: cannot marshal unknown prune style %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParsePruneStyle.
func (s *PruneStyle) UnmarshalText(text []byte) error {
	v, err := ParsePruneStyle(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Config selects the simulated hardware point. The zero value is not
// valid; start from DefaultConfig. New code should prefer the
// functional options (WithOU, WithSeed, …) accepted by Load, Build,
// and RunContext; WithConfig adopts a whole Config at once.
type Config struct {
	CrossbarSize   int // square crossbar dimension (128)
	OUHeight       int // concurrently activated wordlines (16)
	OUWidth        int // concurrently sensed bitlines (16)
	WeightBits     int // weight precision (16)
	ActivationBits int // activation precision (16)
	CellBits       int // bits per ReRAM cell (2)
	DACBits        int // wordline driver resolution (1)
	IndexBits      int // input-index width; 0 = per-network Table 2 value
	MaxWindows     int // per-layer window sampling cap; 0 = all windows
	SliceCap       int // weight bit-slice cap at build time; 0 = off (see WithSliceCap)
	Seed           uint64
	Workers        int // build and simulation worker-pool width; 0 = GOMAXPROCS
}

// DefaultConfig returns the paper's Table 1 design point.
func DefaultConfig() Config {
	return Config{
		CrossbarSize:   128,
		OUHeight:       16,
		OUWidth:        16,
		WeightBits:     16,
		ActivationBits: 16,
		CellBits:       2,
		DACBits:        1,
		IndexBits:      0,
		MaxWindows:     48,
		Seed:           1,
		Workers:        0,
	}
}

// settings is the resolved option set a constructor or run starts from.
type settings struct {
	cfg         Config
	style       PruneStyle
	weightSp    float64 // Build: overall weight-sparsity target
	actSp       float64 // Build: overall activation-sparsity target
	progress    func(Progress)
	metrics     *metrics.Registry
	snapshotDir string
}

// Option adjusts network construction (Load, Build, OpenSnapshot) or a
// single run (RunContext, RunAllContext).
//
// Precedence is strictly positional: options are applied in order, and
// a later option wins over an earlier one for the fields it sets.
// Config values take part in the same ordering — WithConfig(cfg)
// adopts the whole Config at its position, so field options before it
// are overwritten and field options after it override its fields.
// Constructors start from DefaultConfig; there is no separate
// Config-vs-Option precedence beyond that ordering.
type Option func(*settings)

// WithConfig adopts an entire Config (a hardware design point) at
// once; later options override its fields.
func WithConfig(cfg Config) Option { return func(s *settings) { s.cfg = cfg } }

// WithPrune selects the synthetic pruning style (default SSL).
func WithPrune(style PruneStyle) Option { return func(s *settings) { s.style = style } }

// WithOU sets a square OU size (concurrently activated wordlines ×
// sensed bitlines).
func WithOU(size int) Option {
	return func(s *settings) { s.cfg.OUHeight, s.cfg.OUWidth = size, size }
}

// WithCrossbar sets the square crossbar dimension.
func WithCrossbar(size int) Option { return func(s *settings) { s.cfg.CrossbarSize = size } }

// WithCellBits sets the bits stored per ReRAM cell.
func WithCellBits(bits int) Option { return func(s *settings) { s.cfg.CellBits = bits } }

// WithDACBits sets the wordline driver resolution.
func WithDACBits(bits int) Option { return func(s *settings) { s.cfg.DACBits = bits } }

// WithIndexBits overrides the input-index width (0 = the per-network
// Table 2 value).
func WithIndexBits(bits int) Option { return func(s *settings) { s.cfg.IndexBits = bits } }

// WithSeed sets the synthetic-workload seed.
func WithSeed(seed uint64) Option { return func(s *settings) { s.cfg.Seed = seed } }

// WithMaxWindows caps per-layer window sampling (0 = all windows).
func WithMaxWindows(n int) Option { return func(s *settings) { s.cfg.MaxWindows = n } }

// WithWorkers sets the worker-pool width (0 = GOMAXPROCS) of the
// simulation and of the build: given to Load or Build, it bounds the
// layers and row blocks built at once, and given to a run, that run's
// sweep (and RunOCC's OCC build). Results and built networks are
// bit-identical at any width; WithWorkers(1) forces the serial path.
func WithWorkers(n int) Option { return func(s *settings) { s.cfg.Workers = n } }

// WithSparsity sets Build's overall weight and activation sparsity
// targets (ignored by Load, whose networks carry Table 2 sparsities).
func WithSparsity(weight, activation float64) Option {
	return func(s *settings) { s.weightSp, s.actSp = weight, activation }
}

// WithSliceCap caps quantized weight magnitudes at build time so every
// weight fits in its n least-significant bit slices — the structure
// the WSS and ORCDOFWSS modes elide. 0 (the default) leaves weights
// untouched and is bit-identical to builds that predate the knob. The
// cap is build-scoped: it reshapes the weights themselves (all modes
// see the capped network), participates in the snapshot content hash,
// and is rejected by OpenSnapshot like any other build-point change.
func WithSliceCap(n int) Option { return func(s *settings) { s.cfg.SliceCap = n } }

// WithProgress registers a callback invoked after each simulated layer
// completes. Calls are serialized but may arrive out of layer order
// when layers overlap on the worker pool.
func WithProgress(fn func(Progress)) Option { return func(s *settings) { s.progress = fn } }

// Metrics is a run-observability registry (see WithMetrics). Create one
// with NewMetrics; a nil registry disables collection at zero cost.
type Metrics = metrics.Registry

// MetricsSnapshot is a merged point-in-time view of a Metrics registry.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an empty metrics registry ready to hand to
// WithMetrics. One registry may observe any number of concurrent runs;
// Snapshot merges all of them deterministically.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// WithSnapshotDir makes Load and Build consult dir before building:
// the build inputs are content-hashed, and if dir holds a snapshot for
// that hash it is loaded instead of built (SnapshotLoaded reports
// which happened). On a miss the network is built and persisted to dir
// atomically, so the next process — or a replica sharing the
// directory — starts warm. A snapshot that exists but is corrupt or
// version-skewed is a loud error, never a silent rebuild. The option
// is ignored by per-run methods.
func WithSnapshotDir(dir string) Option {
	return func(s *settings) { s.snapshotDir = dir }
}

// WithMetrics attaches a metrics registry to a run. The simulator
// records OU activations, wordline-occupancy histograms, window
// sampling, plan-cache traffic, crossbar reads, and worker-pool
// utilization into per-layer shards; Result.Metrics carries the
// merged snapshot. Collection never changes simulation results —
// Cycles and Energy stay bit-identical to an unmetered run.
func WithMetrics(reg *Metrics) Option { return func(s *settings) { s.metrics = reg } }

// Progress reports one completed layer of a running simulation.
type Progress struct {
	Network    string
	Mode       Mode
	LayerIndex int // index into the network's matrix layers
	LayerCount int
	LayersDone int // layers completed so far, including this one
	Layer      LayerResult
	OUEvents   int64 // the layer's OU activations (window-sampling scaled)
	Windows    int   // the layer's total sliding windows
	Sampled    int   // windows actually simulated (MaxWindows sampling)
}

func defaultSettings() settings {
	return settings{cfg: DefaultConfig(), style: SSL, weightSp: 0.5, actSp: 0.5}
}

func (s settings) apply(opts []Option) settings {
	for _, o := range opts {
		o(&s)
	}
	return s
}

func (c Config) geometry() mapping.Geometry {
	return mapping.Geometry{XbarRows: c.CrossbarSize, XbarCols: c.CrossbarSize,
		SWL: c.OUHeight, SBL: c.OUWidth}
}

func (c Config) params() quant.Params {
	return quant.Params{WBits: c.WeightBits, ABits: c.ActivationBits,
		CellBits: c.CellBits, DACBits: c.DACBits}
}

// maxIndexBits is the widest input-index code the delta encoder
// (internal/index) accepts.
const maxIndexBits = 30

// Validate reports configuration problems.
func (c Config) Validate() error {
	if err := c.geometry().Validate(); err != nil {
		return err
	}
	if err := c.params().Validate(); err != nil {
		return err
	}
	if c.CellBits > 0 && (c.SliceCap < 0 || c.SliceCap > c.WeightBits/c.CellBits) {
		return fmt.Errorf("sre: slice cap %d outside [0, %d] (weight bits / cell bits)",
			c.SliceCap, c.WeightBits/c.CellBits)
	}
	if c.IndexBits < 0 || c.IndexBits > maxIndexBits {
		return fmt.Errorf("sre: index bits %d outside [0, %d] (0 = the network's Table 2 width)",
			c.IndexBits, maxIndexBits)
	}
	if c.MaxWindows < 0 {
		return fmt.Errorf("sre: max windows %d is negative (0 = every window)", c.MaxWindows)
	}
	return nil
}

// ResultVersion is the current Result wire-format version; see
// Result.Version. Version 2 added the WSS mode spellings ("wss",
// "orc+dof+wss") to the Mode text encoding and the ElidedGroups field.
const ResultVersion = 2

// Breakdown splits a run's energy by component class. Every field is
// in joules; Breakdown is part of the served JSON wire format, so
// field meanings and units are stable within a Result.Version.
type Breakdown struct {
	Compute      float64 // joules: arrays, DACs, S&H, ADCs, IR/OR, shift-and-add
	EDRAM        float64 // joules: buffer fetches
	Index        float64 // joules: Index Decoder + Wordline Vector Generator
	Interconnect float64 // joules: inter-layer feature-map transfers over the NoC
	Leakage      float64 // joules: leakage over the run's duration
}

// Total returns the summed energy in joules.
func (b Breakdown) Total() float64 {
	return b.Compute + b.EDRAM + b.Index + b.Interconnect + b.Leakage
}

// LayerResult reports one layer of a run. Like Result it is part of
// the served JSON wire format; units are fixed per field.
type LayerResult struct {
	Name    string
	Cycles  int64   // accelerator clock cycles the layer occupies
	Seconds float64 // wall-clock seconds at the modeled clock rate
	Energy  Breakdown
}

// Result reports one network under one mode and config.
type Result struct {
	// Version is the wire-format version of this struct (currently
	// ResultVersion). Served JSON carries it so clients can detect
	// field-semantics changes forward-compatibly; a zero Version marks
	// a result from a pre-versioning build.
	Version          int
	Network          string
	Mode             Mode
	Cycles           int64   // accelerator clock cycles, end to end
	Seconds          float64 // wall-clock seconds at the modeled clock rate
	Energy           Breakdown
	CompressionRatio float64 // weight compression of the mode's scheme (×, dimensionless)
	IndexStorageBits int64   // input-index storage the scheme needs (bits)
	// ElidedGroups counts OU column groups whose retained-row plans are
	// empty under the mode's weight scheme, summed over layers
	// (Version 2). Under WSS these are the all-zero weight bit slices:
	// an elided group maps no OUs, drives no wordlines, and issues no
	// eDRAM fetch. Always 0 for Baseline (every group keeps all rows).
	ElidedGroups int64
	Layers       []LayerResult
	// Metrics is the merged observability snapshot when the run carried
	// a WithMetrics registry (nil otherwise). RunAllContext snapshots
	// once after every mode finishes, so all the sweep's results share
	// the sweep-wide view.
	Metrics *MetricsSnapshot
}

// Network is a built, simulator-ready model.
//
// Thread safety: a Network is immutable after construction — the built
// layers, compression structures, and plan/mask-plane caches are
// read-only or internally synchronized (sync.Once-per-key builds) — so
// all Run methods are safe for unlimited concurrent use from multiple
// goroutines, including overlapping RunContext/RunAllContext calls on
// the same instance. Lazy OCC structures are guarded by a mutex.
// Concurrent runs that share a WithMetrics registry fold into one
// deterministic snapshot. This is the contract sreserved relies on to
// serve one resident Network per (network, prune, config) key.
type Network struct {
	name     string
	spec     workload.Spec
	built    *workload.Built
	cfg      Config
	style    PruneStyle
	progress func(Progress)

	fromSnapshot bool // loaded from a snapshot rather than built

	occMu sync.Mutex
	occ   []*compress.OCCStructure // lazy, for RunOCC
}

// Networks lists the paper's Table 2 model names.
func Networks() []string {
	specs := workload.Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Load builds one of the paper's Table 2 networks with synthetic
// weights/activations matching its published sparsity. Options select
// the pruning style (default SSL) and hardware point:
//
//	net, err := sre.Load("VGG-16", sre.WithOU(16), sre.WithSeed(7))
func Load(name string, opts ...Option) (*Network, error) {
	spec, err := workload.SpecByName(name)
	if err != nil {
		return nil, err
	}
	return buildNetwork(spec, defaultSettings().apply(opts))
}

// Build builds a custom model from a topology string (see
// internal/nn.Parse grammar; e.g. "conv5x20-pool-conv5x50-pool-500-10").
// WithSparsity sets the overall weight/activation sparsity targets
// (default 0.5 each).
func Build(name, topology string, inputShape []int, opts ...Option) (*Network, error) {
	if err := validateInputShape(inputShape); err != nil {
		return nil, err
	}
	s := defaultSettings().apply(opts)
	spec := workload.Spec{
		Name:           name,
		Topology:       topology,
		Input:          []int{inputShape[0], inputShape[1], inputShape[2]},
		WeightSparsity: s.weightSp,
		ActSparsity:    s.actSp,
		ConvSparsity:   s.weightSp,
		FCSparsity:     s.weightSp,
		RowFrac:        s.weightSp * 0.15,
		SegFrac:        s.weightSp * 0.4,
		ActOctaves:     5,
		IndexBits:      5,
		GSLConv:        s.weightSp,
		GSLFC:          s.weightSp,
	}
	return buildNetwork(spec, s)
}

// ErrInvalidShape marks an input shape rejected at the API boundary;
// match it with errors.Is.
var ErrInvalidShape = errors.New("sre: invalid input shape")

// validateInputShape rejects malformed [channels, height, width]
// shapes before they reach the workload builder, where a zero or
// negative dimension would quietly build a degenerate network.
func validateInputShape(shape []int) error {
	if len(shape) != 3 {
		return fmt.Errorf("%w: got %d dims %v, want [channels, height, width]",
			ErrInvalidShape, len(shape), shape)
	}
	for i, d := range shape {
		if d < 1 {
			return fmt.Errorf("%w: dim %d of %v is %d, every dimension must be >= 1",
				ErrInvalidShape, i, shape, d)
		}
	}
	return nil
}

func buildNetwork(spec workload.Spec, s settings) (*Network, error) {
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	mode, err := s.style.pruneMode()
	if err != nil {
		return nil, err
	}
	if s.cfg.SliceCap > 0 {
		spec.SliceCap = s.cfg.SliceCap
	}
	pool := parallel.New(s.cfg.Workers)
	if s.snapshotDir != "" {
		key := snapshot.Key{Spec: spec, Prune: mode, Quant: s.cfg.params(),
			Geom: s.cfg.geometry(), Seed: s.cfg.Seed}
		built, hit, err := snapshot.LoadOrBuild(s.snapshotDir, key, pool)
		if err != nil {
			return nil, err
		}
		return &Network{name: spec.Name, spec: spec, built: built, cfg: s.cfg,
			style: s.style, progress: s.progress, fromSnapshot: hit}, nil
	}
	built, err := spec.Build(mode, s.cfg.params(), s.cfg.geometry(), s.cfg.Seed, pool)
	if err != nil {
		return nil, err
	}
	return &Network{name: spec.Name, spec: spec, built: built, cfg: s.cfg,
		style: s.style, progress: s.progress}, nil
}

// pruneMode maps the public style to the workload's, erroring on
// unknown values.
func (s PruneStyle) pruneMode() (workload.PruneMode, error) {
	switch s {
	case SSL:
		return workload.SSL, nil
	case GSL:
		return workload.GSL, nil
	case Dense:
		return workload.NoPrune, nil
	}
	return 0, fmt.Errorf("sre: unknown prune style %d", int(s))
}

// pruneStyleFor is pruneMode's inverse, mapping a snapshot's persisted
// workload mode back to the public style.
func pruneStyleFor(m workload.PruneMode) (PruneStyle, error) {
	switch m {
	case workload.SSL:
		return SSL, nil
	case workload.GSL:
		return GSL, nil
	case workload.NoPrune:
		return Dense, nil
	}
	return 0, fmt.Errorf("sre: snapshot has unknown prune mode %d", int(m))
}

// Named snapshot-decoding failures, re-exported so OpenSnapshot
// callers can match them with errors.Is without importing internals.
var (
	// ErrSnapshotCorrupt marks a snapshot whose lengths, checksums, or
	// structural invariants do not hold (including truncation).
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotVersion marks a snapshot written by an incompatible
	// format version.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotHash marks a snapshot whose header content hash does
	// not match its recorded build inputs.
	ErrSnapshotHash = snapshot.ErrHashMismatch
)

// WriteTo serializes the built network — each layer's two compression
// group planes, activation parameters, and stats — as one versioned
// snapshot (DESIGN.md §6) and returns the bytes written. It implements
// io.WriterTo. The artifact is keyed by a content hash of the build
// inputs and its bytes depend on nothing else (not on the run settings
// this network was loaded or run with), so OpenSnapshot restores a
// network bit-identical to this one, and WithSnapshotDir can find it
// by hashing the same inputs. No plan set is written: a loaded network
// derives every plan set from its planes on first use, exactly as a
// built one does.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	mode, err := n.style.pruneMode()
	if err != nil {
		return 0, err
	}
	k := snapshot.Key{Spec: n.spec, Prune: mode, Quant: n.cfg.params(),
		Geom: n.cfg.geometry(), Seed: n.cfg.Seed}
	return snapshot.Write(w, k, n.built)
}

// OpenSnapshot loads a network from a snapshot file in one read,
// skipping the build entirely. The snapshot pins the build point
// (geometry, precision, seed, prune style); options may adjust
// run-scoped knobs (WithWorkers, WithMaxWindows, WithIndexBits,
// WithProgress, …), and any option that would change the build point
// is rejected, exactly as run options are. Decoding failures return
// the named errors ErrSnapshotCorrupt, ErrSnapshotVersion, and
// ErrSnapshotHash — a bad snapshot never silently falls back to a
// rebuild.
func OpenSnapshot(path string, opts ...Option) (*Network, error) {
	k, built, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	style, err := pruneStyleFor(k.Prune)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	cfg.CrossbarSize = k.Geom.XbarRows
	cfg.OUHeight, cfg.OUWidth = k.Geom.SWL, k.Geom.SBL
	cfg.WeightBits, cfg.ActivationBits = k.Quant.WBits, k.Quant.ABits
	cfg.CellBits, cfg.DACBits = k.Quant.CellBits, k.Quant.DACBits
	cfg.Seed = k.Seed
	cfg.SliceCap = k.Spec.SliceCap
	if cfg.geometry() != k.Geom || cfg.params() != k.Quant {
		return nil, fmt.Errorf("sre: snapshot %s has a design point Config cannot represent (%+v)", path, k.Geom)
	}
	s := settings{cfg: cfg, style: style}.apply(opts)
	if !s.keepsBuildPoint(cfg, style) {
		return nil, fmt.Errorf(
			"sre: option would change the snapshot's build point (%s); rebuild with Load/Build instead", buildPointKnobs)
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{name: k.Spec.Name, spec: k.Spec, built: built, cfg: s.cfg,
		style: style, progress: s.progress, fromSnapshot: true}, nil
}

// SnapshotLoaded reports whether this network came from a snapshot
// (OpenSnapshot, or a WithSnapshotDir cache hit) rather than a fresh
// build — the signal serve-layer hit/miss metrics count.
func (n *Network) SnapshotLoaded() bool { return n.fromSnapshot }

// Name returns the network's name.
func (n *Network) Name() string { return n.name }

// SizeBytes estimates the resident memory a network pins: each layer's
// two compression group planes (the words a snapshot persists, and all
// a built or loaded network holds before its first run) plus the plan
// sets and the slice-mask planes (over the network's own activations)
// that runs have lazily cached so far, with a small fixed constant per
// layer for activation sources and bookkeeping. The estimate is cheap
// (no allocation, a few loads per layer) and monotone — the caches only
// grow — so callers that account memory, like sreserved's byte-bounded
// registry, can re-read it as the network warms up.
func (n *Network) SizeBytes() int64 {
	total := int64(4096)
	for i := range n.built.Layers {
		l := &n.built.Layers[i]
		if l.Struct != nil {
			total += l.Struct.SizeBytes()
		}
		total += l.Masks.ResidentBytes()
		total += 1024
	}
	return total
}

// LayerCount returns the number of matrix (crossbar-mapped) layers.
func (n *Network) LayerCount() int { return len(n.built.Layers) }

// indexBits resolves the effective index width of the build config.
func (n *Network) indexBits() int { return n.indexBitsFor(n.cfg) }

func (n *Network) indexBitsFor(cfg Config) int {
	if cfg.IndexBits > 0 {
		return cfg.IndexBits
	}
	return n.spec.IndexBits
}

// Run simulates the network under the given mode on this network's
// hardware config. It is RunContext with a background context.
func (n *Network) Run(mode Mode) (Result, error) {
	return n.RunContext(context.Background(), mode)
}

// RunContext simulates the network under the given mode, sharding the
// simulation over the worker pool. Per-run options may adjust
// run-scoped knobs (WithWorkers, WithMaxWindows, WithProgress);
// options that would change the built network (geometry, precision,
// seed, prune style) are rejected. The simulation stops early and
// returns ctx.Err when the context is cancelled.
func (n *Network) RunContext(ctx context.Context, mode Mode, opts ...Option) (Result, error) {
	out, err := n.RunModesContext(ctx, []Mode{mode}, opts...)
	if err != nil {
		return Result{}, err
	}
	return out[0], nil
}

// runSettings resolves per-run options against the build-time config,
// rejecting any change that would invalidate the built structures and
// any run config that does not validate.
func (n *Network) runSettings(opts []Option) (settings, error) {
	s := settings{cfg: n.cfg, style: n.style, progress: n.progress}.apply(opts)
	if !s.keepsBuildPoint(n.cfg, n.style) {
		return settings{}, fmt.Errorf(
			"sre: run option would change the built network (%s); pass it to Load/Build instead", buildPointKnobs)
	}
	if err := s.cfg.Validate(); err != nil {
		return settings{}, err
	}
	return s, nil
}

// buildPointKnobs names what keepsBuildPoint compares, for its callers'
// errors.
const buildPointKnobs = "geometry, precision, seed, prune style, or slice cap"

// keepsBuildPoint reports whether s leaves the build point of a network
// built at cfg with the given prune style unchanged.
func (s settings) keepsBuildPoint(cfg Config, style PruneStyle) bool {
	return s.cfg.geometry() == cfg.geometry() && s.cfg.params() == cfg.params() &&
		s.cfg.Seed == cfg.Seed && s.style == style && s.cfg.SliceCap == cfg.SliceCap
}

// coreConfig is the simulator configuration of one run: core's default
// energy and interconnect models at this network's build point and the
// run settings s, under core mode cm, drawing from pool (nil: a pool of
// the run's worker width).
func (n *Network) coreConfig(s settings, cm core.Mode, pool *parallel.Pool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Geometry, cfg.Quant, cfg.Mode = n.cfg.geometry(), n.cfg.params(), cm
	cfg.IndexBits, cfg.MaxWindows = n.indexBitsFor(s.cfg), s.cfg.MaxWindows
	cfg.Workers, cfg.Pool, cfg.Metrics = s.cfg.Workers, pool, s.metrics
	return cfg
}

// results assembles the public Results of one simulated configuration,
// one per activation set: each NetworkResult's totals and per-layer
// rows, plus the weight scheme's compression ratio, index storage and
// elided groups over layers. Those depend only on the scheme, so they
// are computed once; OCC layers report their column-compressed
// structures and output indexes. Callers set Mode and Metrics.
func (n *Network) results(cfg core.Config, layers []core.Layer, ress []core.NetworkResult) []Result {
	var total, comp, storage, elided int64
	for _, l := range layers {
		total += l.Struct.Layout.TotalCells()
		if cfg.Mode.Scheme == compress.OCC {
			comp += l.OCC.CompressedCells()
			storage += l.OCC.OutputIndexBits()
			continue
		}
		comp += l.Struct.CompressedCells(cfg.Mode.Scheme, cfg.IndexBits)
		storage += l.Struct.IndexStorageBits(cfg.Mode.Scheme, cfg.IndexBits)
		elided += l.Struct.EmptyGroups(cfg.Mode.Scheme, cfg.IndexBits)
	}
	out := make([]Result, len(ress))
	for j, res := range ress {
		r := Result{
			Version:          ResultVersion,
			Network:          n.name,
			Cycles:           res.Cycles,
			Seconds:          res.Time,
			Energy:           Breakdown(res.Energy),
			IndexStorageBits: storage,
			ElidedGroups:     elided,
		}
		if comp > 0 {
			r.CompressionRatio = float64(total) / float64(comp)
		}
		for _, lr := range res.Layers {
			r.Layers = append(r.Layers, layerResult(lr))
		}
		out[j] = r
	}
	return out
}

// layerResult converts one simulated layer to its public form.
func layerResult(lr core.LayerResult) LayerResult {
	return LayerResult{Name: lr.Name, Cycles: lr.Cycles, Seconds: lr.Time, Energy: Breakdown(lr.Energy)}
}

// RunAll simulates every mode concurrently and returns results in
// Modes() order. It is RunAllContext with a background context.
func (n *Network) RunAll() ([]Result, error) {
	return n.RunAllContext(context.Background())
}

// RunAllContext simulates every mode, running the modes concurrently
// through one shared worker pool so total concurrency stays bounded.
// Results come back in Modes() order regardless of completion order
// (use ResultsByMode to key them); per-run options apply to every mode.
func (n *Network) RunAllContext(ctx context.Context, opts ...Option) ([]Result, error) {
	return n.RunModesContext(ctx, Modes(), opts...)
}

// RunModesContext simulates the given modes — any non-empty subset of
// Modes(), in any order — concurrently through one shared worker pool,
// exactly as RunAllContext does for the full set. Results come back in
// the order modes was given. It is RunBatchContext over the network's
// own activations.
func (n *Network) RunModesContext(ctx context.Context, modes []Mode, opts ...Option) ([]Result, error) {
	out, err := n.RunBatchContext(ctx, modes, []ActivationSet{{}}, opts...)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ActivationSet selects one activation assignment of a batched run
// (RunBatchContext). The zero value selects the network's built-in
// activations.
type ActivationSet struct {
	// ActSeed, when non-zero and different from the network's build
	// seed, re-derives every layer's synthetic activations from this
	// seed: same statistics (sparsity, octaves, window counts), an
	// independent random stream — weights, pruning, and the compression
	// structures are untouched. Zero, or the build seed itself, selects
	// the network's own activations.
	ActSeed uint64
}

// RunBatch is RunBatchContext with a background context.
func (n *Network) RunBatch(modes []Mode, acts []ActivationSet, opts ...Option) ([][]Result, error) {
	return n.RunBatchContext(context.Background(), modes, acts, opts...)
}

// RunBatchContext simulates the given modes once per activation set as
// one batched multi-activation sweep and returns results indexed
// [set][mode]. Each Result is bit-identical to the same mode run alone
// over this network with that set's activations substituted; the batch
// shares everything activation-independent across sets — compression
// plans, scratch arenas, and (for the static modes, which never read
// activation values) the entire simulation — so a batched sweep is
// sub-linear in the number of sets. Sets of the network's own
// activations also share its cached slice-mask planes; variant seeds
// read their sources per window and cache nothing. Modes run
// concurrently through one shared worker pool. Per-run options follow
// RunContext's rules; WithProgress reports each mode's layers once
// each, with the first set's LayerResult. Every other run method is a
// batch of one set, as is each sweep sreserved runs for a request.
func (n *Network) RunBatchContext(ctx context.Context, modes []Mode, acts []ActivationSet, opts ...Option) ([][]Result, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("sre: a run needs at least one mode")
	}
	if len(acts) == 0 {
		return nil, fmt.Errorf("sre: RunBatchContext needs at least one activation set")
	}
	s, err := n.runSettings(opts)
	if err != nil {
		return nil, err
	}
	batch := make([]core.BatchInput, len(acts))
	for j, a := range acts {
		if a.ActSeed != 0 && a.ActSeed != n.cfg.Seed {
			batch[j].Sources = n.spec.VariantSources(n.built.Layers, a.ActSeed)
		}
	}
	pool := parallel.New(s.cfg.Workers)
	out := make([][]Result, len(acts))
	for j := range out {
		out[j] = make([]Result, len(modes))
	}
	errs := make([]error, len(modes))
	poolErr := pool.For(ctx, len(modes), func(start, end int) {
		for i := start; i < end; i++ {
			errs[i] = n.runMode(ctx, modes[i], pool, s, batch, out, i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if poolErr != nil {
		return nil, poolErr
	}
	if s.metrics != nil {
		// Snapshot once every mode is done, so all results agree on the
		// sweep-wide totals.
		snap := s.metrics.Snapshot()
		for j := range out {
			for i := range out[j] {
				out[j][i].Metrics = snap
			}
		}
	}
	return out, nil
}

// runMode runs one mode of a sweep over every activation set and fills
// column mi of the [set][mode] result grid.
func (n *Network) runMode(ctx context.Context, mode Mode, pool *parallel.Pool,
	s settings, batch []core.BatchInput, out [][]Result, mi int) error {
	cm, err := mode.coreMode()
	if err != nil {
		return err
	}
	cfg := n.coreConfig(s, cm, pool)
	if s.progress != nil {
		progress := s.progress
		cfg.Progress = func(ev core.ProgressEvent) {
			progress(Progress{
				Network: n.name, Mode: mode,
				LayerIndex: ev.Index, LayerCount: ev.Count, LayersDone: ev.Done,
				Layer:    layerResult(ev.Layer),
				OUEvents: ev.Layer.OUEvents,
				Windows:  ev.Layer.Windows,
				Sampled:  ev.Layer.Sampled,
			})
		}
	}
	ress, err := core.SimulateNetworkBatchContext(ctx, n.built.Layers, cfg, batch)
	if err != nil {
		return err
	}
	for j, r := range n.results(cfg, n.built.Layers, ress) {
		r.Mode = mode
		out[j][mi] = r
	}
	return nil
}

// ResultsByMode keys a RunAll result slice by mode.
func ResultsByMode(results []Result) map[Mode]Result {
	out := make(map[Mode]Result, len(results))
	for _, r := range results {
		out[r.Mode] = r
	}
	return out
}

// RunOCC simulates the network under OU-column compression (§4.1,
// Fig. 8(c)) — the row-compression alternative the paper rejects because
// it needs output indexing and cannot combine with DOF (Fig. 10). The
// per-layer OCC structures are built lazily on first call. Per-run
// options adjust the same run-scoped knobs as RunContext.
func (n *Network) RunOCC(opts ...Option) (Result, error) {
	s, err := n.runSettings(opts)
	if err != nil {
		return Result{}, err
	}
	n.occMu.Lock()
	if n.occ == nil {
		mode, err := n.style.pruneMode()
		if err != nil {
			n.occMu.Unlock()
			return Result{}, err
		}
		occs, err := n.spec.BuildOCCStructures(mode, n.cfg.params(), n.cfg.geometry(), n.cfg.Seed, parallel.New(s.cfg.Workers))
		if err != nil {
			n.occMu.Unlock()
			return Result{}, err
		}
		n.occ = occs
	}
	n.occMu.Unlock()
	layers := make([]core.Layer, len(n.built.Layers))
	copy(layers, n.built.Layers)
	for i := range layers {
		layers[i].OCC = n.occ[i]
	}
	cfg := n.coreConfig(s, core.ModeOCC, nil)
	res, err := core.SimulateNetworkContext(context.Background(), layers, cfg)
	if err != nil {
		return Result{}, err
	}
	out := n.results(cfg, layers, []core.NetworkResult{res})[0]
	if s.metrics != nil {
		out.Metrics = s.metrics.Snapshot()
	}
	return out, nil
}

// RunISAAC simulates the network on the over-idealized ISAAC-style
// accelerator (§7.5), optionally with ReCom weight compression.
func (n *Network) RunISAAC(withReCom bool) Result {
	cfg := isaac.DefaultConfig()
	cfg.Geometry = n.cfg.geometry()
	cfg.Quant = n.cfg.params()
	cfg.ReCom = withReCom
	res := isaac.SimulateNetwork(n.built.ISAACInputs(), cfg)
	out := Result{
		Version: ResultVersion,
		Network: n.name + "/isaac",
		Cycles:  res.Cycles,
		Seconds: res.Time,
		Energy:  Breakdown(res.Energy),
	}
	for _, lr := range res.Layers {
		out.Layers = append(out.Layers, LayerResult{
			Name: lr.Name, Cycles: lr.Cycles, Seconds: lr.Time,
			Energy: Breakdown(lr.Energy),
		})
	}
	return out
}

// CompressionRatio returns the network's weight compression ratio under
// a scheme without running a simulation.
func (n *Network) CompressionRatio(mode Mode) (float64, error) {
	cm, err := mode.coreMode()
	if err != nil {
		return 0, err
	}
	var total, comp int64
	for _, l := range n.built.Layers {
		total += l.Struct.Layout.TotalCells()
		comp += l.Struct.CompressedCells(cm.Scheme, n.indexBits())
	}
	if comp == 0 {
		comp = 1
	}
	return float64(total) / float64(comp), nil
}

// IdealCompressionRatio returns the Fig. 20 upper bound (every zero cell
// removed).
func (n *Network) IdealCompressionRatio() float64 {
	var total, comp int64
	for _, l := range n.built.Layers {
		total += l.Struct.Layout.TotalCells()
		comp += l.Struct.CompressedCells(compress.Ideal, 0)
	}
	if comp == 0 {
		comp = 1
	}
	return float64(total) / float64(comp)
}

// Cell is a ReRAM device technology for the accuracy model (Fig. 5).
type Cell struct {
	Bits   int
	RRatio float64
	Sigma  float64
}

// BaselineCell returns the paper's WOx (R_b, σ_b) device.
func BaselineCell() Cell {
	c := reram.WOxBaseline()
	return Cell{Bits: c.Bits, RRatio: c.RRatio, Sigma: c.Sigma}
}

// Improved returns the cell with k× larger R-ratio and k× smaller σ.
func (c Cell) Improved(k float64) Cell {
	return Cell{Bits: c.Bits, RRatio: c.RRatio * k, Sigma: c.Sigma / k}
}

// ReadErrorProbability returns the probability that a bitline read over
// m concurrently driven wordlines is mis-sensed — the §3 mechanism that
// forces OU-based operation.
func (c Cell) ReadErrorProbability(m int, meanState float64) float64 {
	rc := reram.Cell{Bits: c.Bits, RRatio: c.RRatio, Sigma: c.Sigma}
	return rc.ReadErrorProb(m, meanState)
}
