// Package serve is the sreserved simulation service: a long-lived
// HTTP/JSON front end over the sre library that keeps built networks
// resident (registry.go), admits a bounded number of concurrent
// requests (admission.go), answers each one from a deterministic
// result cache (cache.go) and one sweep of its own over the modes the
// cache lacks, and drains gracefully on shutdown. One process
// amortizes Load's workload synthesis and the simulator's plan and
// slice-mask caches across every request that hits the same design
// point — the serving shape ReRAM accelerator stacks assume, where
// the compressed structures are built once and reused.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"sre"
	"sre/internal/metrics"
)

// Options configures a Server. The zero value serves with the
// defaults noted per field.
type Options struct {
	// MaxQueue bounds admitted-but-unfinished requests (default 64);
	// excess requests get 503 + Retry-After instead of queueing
	// without bound.
	MaxQueue int
	// MaxSweeps caps concurrent simulation sweeps (default 2), so
	// admitted requests cannot oversubscribe the worker pool.
	MaxSweeps int
	// Workers is the per-sweep worker-pool width (0 = GOMAXPROCS).
	Workers int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 60s); MaxTimeout caps what a request may ask for
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Metrics receives both the server's own counters and every
	// sweep's simulator metrics; /metrics serves it. NewServer creates
	// one when nil.
	Metrics *metrics.Registry
	// SnapshotDir, when non-empty, makes cold registry keys consult
	// (and populate) a network-snapshot directory before building, so
	// a restarted daemon, or any other sharing the directory, starts
	// warm.
	// sre_serve_snapshot_{hits,misses}_total count the outcomes.
	SnapshotDir string
	// ResultCacheBytes bounds the deterministic result cache (default
	// 256 MiB; negative disables caching). Repeated (design point, mode,
	// act_seed) requests are answered from the cache without sweeping,
	// bit-identical and flagged "cached" in the response.
	ResultCacheBytes int64
	// RegistryBytes bounds the resident-network registry's accounted
	// bytes (default 0 = unbounded). Past the cap the least-recently-
	// used networks not pinned by a running sweep are evicted.
	RegistryBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 2
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.ResultCacheBytes == 0 {
		o.ResultCacheBytes = 256 << 20
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	return o
}

// Server is the simulation service. Create one with NewServer; it
// implements http.Handler.
type Server struct {
	opts     Options
	registry *Registry
	gate     *Gate
	budget   *Budget
	cache    *ResultCache // nil when caching is disabled
	mux      *http.ServeMux
	base     context.Context    // the drain context every sweep also runs under
	stop     context.CancelFunc // cancels base

	requests *metrics.Counter
	rejected *metrics.Counter
	timeouts *metrics.Counter
	sweeps   *metrics.Counter
	cancels  *metrics.Counter
	inflight *metrics.Gauge
}

// NewServer returns a ready-to-serve Server.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	base, stop := context.WithCancel(context.Background())
	shard := opts.Metrics.Shard()
	s := &Server{
		opts:     opts,
		registry: NewRegistry(),
		gate:     NewGate(opts.MaxQueue),
		budget:   NewBudget(opts.MaxSweeps),
		base:     base,
		stop:     stop,
		requests: shard.Counter("sre_serve_requests_total"),
		rejected: shard.Counter("sre_serve_rejected_total"),
		timeouts: shard.Counter("sre_serve_timeouts_total"),
		sweeps:   shard.Counter("sre_serve_sweeps_total"),
		cancels:  shard.Counter("sre_serve_sweep_cancels_total"),
		inflight: shard.Gauge("sre_serve_inflight_requests"),
	}
	s.gate.Track(s.inflight)
	s.registry.CountBuilds(shard.Counter("sre_serve_registry_builds_total"))
	if opts.SnapshotDir != "" {
		s.registry.UseSnapshots(opts.SnapshotDir,
			shard.Counter("sre_serve_snapshot_hits_total"),
			shard.Counter("sre_serve_snapshot_misses_total"))
	}
	if opts.RegistryBytes > 0 {
		s.registry.Bound(opts.RegistryBytes,
			shard.Counter("sre_serve_registry_evictions_total"),
			shard.Counter("sre_serve_registry_evicted_bytes_total"),
			shard.Gauge("sre_serve_registry_bytes"))
	}
	s.cache = NewResultCache(opts.ResultCacheBytes,
		shard.Counter("sre_serve_result_cache_hits_total"),
		shard.Counter("sre_serve_result_cache_misses_total"),
		shard.Counter("sre_serve_result_cache_evictions_total"),
		shard.Gauge("sre_serve_result_cache_bytes"))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/networks", s.handleNetworks)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", opts.Metrics.Handler())
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the server's registry (for the drain-time snapshot).
func (s *Server) Metrics() *metrics.Registry { return s.opts.Metrics }

// Registry exposes the resident-network registry (read-mostly; tests
// assert its build-once invariant).
func (s *Server) Registry() *Registry { return s.registry }

// Drain gracefully shuts the service down: stop admitting (new
// requests get 503), let every in-flight request finish, then cancel
// the drain context every sweep runs under. Returns nil once drained,
// or ctx.Err if ctx ends first (in-flight sweeps are then cancelled
// mid-run). Pair it with http.Server.Shutdown, which drains the
// connections.
func (s *Server) Drain(ctx context.Context) error {
	done := s.gate.Close()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.stop()
		return ctx.Err()
	}
}

// SimulateRequest is the POST /v1/simulate body. Exactly the canonical
// spellings the CLIs use: modes via sre.ParseMode (the registry's full
// list — "baseline" through "orc+dof+wss"), prune styles via
// sre.ParsePruneStyle. An unknown mode spelling is a 400 whose error
// body names the rejected mode and the accepted list.
type SimulateRequest struct {
	// Network is a Table 2 name (GET /v1/networks lists them).
	Network string `json:"network"`
	// Prune is ssl|gsl|dense (default ssl).
	Prune string `json:"prune,omitempty"`
	// Mode names one mode; Modes names several (or ["all"]). At least
	// one of the two must be set.
	Mode  string   `json:"mode,omitempty"`
	Modes []string `json:"modes,omitempty"`
	// Config overrides individual fields of the default design point.
	Config ConfigOverrides `json:"config"`
	// ActSeed, when non-zero and not the build seed, re-derives the
	// network's activations from this seed (same statistics,
	// independent random stream; weights and compression structures
	// unchanged). Zero and the build seed both select the network's own
	// activations and share their cached results. Requests that differ
	// only in act_seed share the resident network and its plan caches,
	// never a sweep.
	ActSeed uint64 `json:"act_seed,omitempty"`
	// TimeoutMillis is the per-request deadline; 0 means the server
	// default. The deadline propagates into the simulation via context
	// cancellation; an expired request gets 504.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// ConfigOverrides patches sre.DefaultConfig field by field. Build-
// scoped fields select the resident network; run-scoped fields
// (max_windows, index_bits) apply per request on the shared instance.
type ConfigOverrides struct {
	Crossbar   *int    `json:"crossbar,omitempty"`
	OU         *int    `json:"ou,omitempty"` // square OU size
	WeightBits *int    `json:"weight_bits,omitempty"`
	ActBits    *int    `json:"act_bits,omitempty"`
	CellBits   *int    `json:"cell_bits,omitempty"`
	DACBits    *int    `json:"dac_bits,omitempty"`
	IndexBits  *int    `json:"index_bits,omitempty"`
	MaxWindows *int    `json:"max_windows,omitempty"`
	SliceCap   *int    `json:"slice_cap,omitempty"` // weight bit-slice cap (build-scoped; wss elision)
	Seed       *uint64 `json:"seed,omitempty"`
}

func (o ConfigOverrides) apply(cfg sre.Config) sre.Config {
	if o.Crossbar != nil {
		cfg.CrossbarSize = *o.Crossbar
	}
	if o.OU != nil {
		cfg.OUHeight, cfg.OUWidth = *o.OU, *o.OU
	}
	if o.WeightBits != nil {
		cfg.WeightBits = *o.WeightBits
	}
	if o.ActBits != nil {
		cfg.ActivationBits = *o.ActBits
	}
	if o.CellBits != nil {
		cfg.CellBits = *o.CellBits
	}
	if o.DACBits != nil {
		cfg.DACBits = *o.DACBits
	}
	if o.IndexBits != nil {
		cfg.IndexBits = *o.IndexBits
	}
	if o.MaxWindows != nil {
		cfg.MaxWindows = *o.MaxWindows
	}
	if o.SliceCap != nil {
		cfg.SliceCap = *o.SliceCap
	}
	if o.Seed != nil {
		cfg.Seed = *o.Seed
	}
	return cfg
}

// SimulateResponse is the POST /v1/simulate reply. Results come back
// in the order the request named its modes; each Result is
// bit-identical to a direct Network.RunContext with the same options
// (the sweep-wide metrics snapshot is stripped — scrape /metrics for
// the aggregate view). Each Result carries its wire-format version
// (sre.ResultVersion, currently 2: version 2 added the "wss" and
// "orc+dof+wss" mode spellings and the elided-group count).
type SimulateResponse struct {
	Network   string       `json:"network"`
	Prune     string       `json:"prune"`
	BatchSize int          `json:"batch_size"` // always 1: no request shares another's sweep
	Cached    bool         `json:"cached"`     // every cell served from the result cache, no sweep
	Results   []sre.Result `json:"results"`
}

// NetworksResponse is the GET /v1/networks reply.
type NetworksResponse struct {
	// Networks lists every loadable Table 2 name.
	Networks []string `json:"networks"`
	// Resident lists the built, cached design points.
	Resident []string `json:"resident"`
	// ResidentDetail reports, per resident design point, the accounted
	// size and the pin count (sweeps currently running against it), so
	// eviction behavior is observable from the outside.
	ResidentDetail []ResidentNetwork `json:"resident_detail,omitempty"`
	// Builds counts network builds since startup.
	Builds int64 `json:"builds"`
}

// ResidentNetwork is one resident design point's observability row.
type ResidentNetwork struct {
	Key       string `json:"key"`
	SizeBytes int64  `json:"size_bytes"`
	Pinned    int    `json:"pinned"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	resident := s.registry.Resident()
	resp := NetworksResponse{
		Networks: sre.Networks(),
		Resident: make([]string, len(resident)),
		Builds:   s.registry.Builds(),
	}
	if len(resident) > 0 {
		resp.ResidentDetail = make([]ResidentNetwork, len(resident))
	}
	for i, ri := range resident {
		ks := ri.Key.String()
		resp.Resident[i] = ks
		if resp.ResidentDetail != nil {
			resp.ResidentDetail[i] = ResidentNetwork{Key: ks, SizeBytes: ri.SizeBytes, Pinned: ri.Pinned}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxRequestBytes bounds a /v1/simulate body, which is decoded before
// admission; real requests are a few hundred bytes.
const maxRequestBytes = 1 << 20

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req SimulateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	key, batchKey, modes, status, err := s.resolve(req)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}

	if err := s.gate.Enter(); err != nil {
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	defer s.gate.Leave()

	timeout := s.opts.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > s.opts.MaxTimeout {
		timeout = s.opts.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// The build seed selects the network's own activations, as 0 does,
	// so both share one cache cell.
	actSeed := req.ActSeed
	if actSeed == key.Seed {
		actSeed = 0
	}
	results, cached, err := s.simulate(ctx, batchKey, modes, actSeed)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "deadline exceeded"})
		return
	case errors.Is(err, context.Canceled), errors.Is(err, ErrDraining):
		// Client went away or the server is stopping mid-flight. Both
		// are retryable, so advertise that like every other 503 this
		// server emits.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request cancelled"})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SimulateResponse{
		Network:   key.Network,
		Prune:     key.Prune.String(),
		BatchSize: 1,
		Cached:    cached,
		Results:   results,
	})
}

// simulate answers one request: from the result cache when every
// (mode, act_seed) cell is there, otherwise by one sweep of its own
// over only the modes the cache lacks, run on the caller's goroutine
// under ctx and the drain context, so a deadline, a departed client or
// Drain cancels it. The cache is read again once a sweep slot is held,
// so a request queued behind a running sweep reuses the cells it
// filled instead of sweeping them twice; that read's hits and misses
// are the ones counted. Per-mode results do not depend on which modes
// run together, so the swept cells merge with the cached ones. The
// slot and the network's pin are released before simulate returns.
// Results come back in the order modes was given; cached reports that
// no sweep ran.
func (s *Server) simulate(ctx context.Context, key BatchKey, modes []sre.Mode, actSeed uint64) ([]sre.Result, bool, error) {
	if res, missing := s.cache.Lookup(key, modes, actSeed); len(missing) == 0 {
		s.cache.tally(len(modes), 0)
		return res, true, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(s.base, cancel)()
	if err := s.budget.Acquire(ctx); err != nil {
		return nil, false, err
	}
	defer s.budget.Release()
	res, missing := s.cache.Lookup(key, modes, actSeed)
	s.cache.tally(len(modes)-len(missing), len(missing))
	if len(missing) == 0 {
		return res, true, nil
	}
	s.sweeps.Inc()
	sweep := make([]sre.Mode, len(missing))
	for j, i := range missing {
		sweep[j] = modes[i]
	}
	net, release, err := s.registry.Get(ctx, key.Key)
	var grid [][]sre.Result
	if err == nil {
		defer release() // unpin: the registry may evict once the sweep is done
		grid, err = net.RunBatchContext(ctx, sweep, []sre.ActivationSet{{ActSeed: actSeed}},
			sre.WithMaxWindows(key.MaxWindows),
			sre.WithIndexBits(key.IndexBits),
			sre.WithWorkers(s.opts.Workers),
			sre.WithMetrics(s.opts.Metrics))
	}
	if err != nil {
		if ctx.Err() != nil {
			s.cancels.Inc()
		}
		return nil, false, err
	}
	for j, i := range missing {
		r := grid[0][j]
		// Strip the sweep-wide metrics snapshot: responses must be
		// bit-identical to a direct run, and /metrics serves the
		// aggregate view.
		r.Metrics = nil
		s.cache.Put(key, sweep[j], actSeed, r)
		res[i] = r
	}
	return res, false, nil
}

// resolve validates a request into its registry key, batch key, and
// mode list, returning the HTTP status to use on error.
func (s *Server) resolve(req SimulateRequest) (Key, BatchKey, []sre.Mode, int, error) {
	known := false
	for _, n := range sre.Networks() {
		if n == req.Network {
			known = true
			break
		}
	}
	if !known {
		return Key{}, BatchKey{}, nil, http.StatusNotFound,
			fmt.Errorf("unknown network %q (GET /v1/networks lists them)", req.Network)
	}
	prune := sre.SSL
	if req.Prune != "" {
		var err error
		if prune, err = sre.ParsePruneStyle(req.Prune); err != nil {
			return Key{}, BatchKey{}, nil, http.StatusBadRequest, err
		}
	}
	names := req.Modes
	if req.Mode != "" {
		names = append([]string{req.Mode}, names...)
	}
	if len(names) == 0 {
		return Key{}, BatchKey{}, nil, http.StatusBadRequest,
			fmt.Errorf(`request names no modes (set "mode" or "modes"; "all" selects every mode)`)
	}
	var modes []sre.Mode
	for _, name := range names {
		if name == "all" {
			for _, m := range sre.Modes() {
				if !slices.Contains(modes, m) {
					modes = append(modes, m)
				}
			}
			continue
		}
		m, err := sre.ParseMode(name)
		if err != nil {
			return Key{}, BatchKey{}, nil, http.StatusBadRequest, err
		}
		if !slices.Contains(modes, m) {
			modes = append(modes, m)
		}
	}
	cfg := req.Config.apply(sre.DefaultConfig())
	if err := cfg.Validate(); err != nil {
		return Key{}, BatchKey{}, nil, http.StatusBadRequest, err
	}
	key := KeyFor(req.Network, prune, cfg)
	return key, BatchKey{Key: key, MaxWindows: cfg.MaxWindows, IndexBits: cfg.IndexBits},
		modes, 0, nil
}

// writeJSON sends v as compact JSON and a newline. Replies are not
// indented: indenting re-walks every encoded reply and would be most of
// what a cache hit costs. Readers who want layout pipe them through jq.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status is sent; a failed write means the client has gone
}
