// Micro-batcher: coalesces requests that can share one sweep. Two
// requests agree on a BatchKey when they target the same resident
// network with the same result-affecting run options; the batcher
// holds the first such request for a short coalescing window, merges
// the mode sets — and the activation seeds — of every request that
// arrives meanwhile, runs the union as a single sweep (one pass over
// the shared slice-mask planes and plan caches instead of one per
// request), and fans the per-(seed, mode) results back out to each
// waiter. Requests that differ only in their activation seed still
// coalesce: the union runs as one batched multi-activation sweep
// (sre.RunBatchContext), which shares all activation-independent work
// across the seeds, so the sweep is sub-linear in the number of
// distinct seeds.
//
// Result cache: because runs are deterministic, a (BatchKey, mode,
// act_seed) cell that has been swept before needs no sweep at all. A
// request whose every cell is cached is answered straight from Do —
// no coalescing delay, no sweep slot; a claimed batch whose union is
// fully cached is delivered before acquiring a sweep slot. Either way
// the response is the bit-identical Result a sweep would have
// produced, flagged cached, and sre_serve_sweeps_total does not move.
//
// Deadlines: each waiter gives up individually when its own context
// ends — a 504 for that request only. The sweep itself is cancelled
// (through the sre.RunContext cancellation path) only when every
// waiter has abandoned it, so one impatient client cannot kill a
// result another client is still waiting for.
package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"sre"
	"sre/internal/metrics"
)

// BatchKey groups requests that may share one sweep: the resident
// network plus every run option that changes results. (Worker width
// does not — results are bit-identical at any width. The activation
// seed changes results but deliberately stays out of the key:
// differing seeds coalesce into one batched multi-activation sweep and
// fan back out per seed.)
type BatchKey struct {
	Key        Key
	MaxWindows int
	IndexBits  int
}

// Batcher coalesces and executes sweeps. Create one with NewBatcher.
type Batcher struct {
	registry *Registry
	budget   *Budget
	cache    *ResultCache // nil disables result caching
	window   time.Duration
	workers  int
	opts     []sre.Option // extra run options (e.g. WithMetrics)
	base     context.Context

	mu      sync.Mutex
	pending map[BatchKey]*batch

	sweeps    *metrics.Counter
	coalesced *metrics.Counter
	cancels   *metrics.Counter
}

type batch struct {
	modes   []sre.Mode // union, first-seen order
	acts    []uint64   // distinct activation seeds, first-seen order
	waiters []*waiter
}

type waiter struct {
	ctx     context.Context
	modes   []sre.Mode
	actSeed uint64
	ch      chan batchResult // buffered; delivery never blocks the sweep
}

type batchResult struct {
	byAct  map[uint64]map[sre.Mode]sre.Result
	size   int // how many requests shared the sweep
	cached bool
	err    error
}

// NewBatcher returns a batcher executing against registry under
// budget, consulting (and populating) cache when it is non-nil.
// window is the coalescing delay (<=0 disables coalescing: every
// request claims its batch synchronously and sweeps alone); workers is
// the per-sweep pool width (0 = GOMAXPROCS); base bounds every sweep's
// lifetime (the server's run context); shard receives the batcher's
// counters (nil-safe); runOpts are appended to every sweep (the server
// passes WithMetrics).
func NewBatcher(registry *Registry, budget *Budget, cache *ResultCache, window time.Duration,
	workers int, base context.Context, shard *metrics.Shard, runOpts ...sre.Option) *Batcher {
	return &Batcher{
		registry:  registry,
		budget:    budget,
		cache:     cache,
		window:    window,
		workers:   workers,
		opts:      runOpts,
		base:      base,
		pending:   map[BatchKey]*batch{},
		sweeps:    shard.Counter("sre_serve_sweeps_total"),
		coalesced: shard.Counter("sre_serve_coalesced_requests_total"),
		cancels:   shard.Counter("sre_serve_sweep_cancels_total"),
	}
}

// Do submits one request (key + the modes it wants + its activation
// seed, 0 = the network's own activations) and blocks until its
// results arrive or ctx ends. Returns the results in the order modes
// was given, how many requests shared the sweep, and whether the
// response came from the result cache without sweeping.
func (b *Batcher) Do(ctx context.Context, key BatchKey, modes []sre.Mode, actSeed uint64) ([]sre.Result, int, bool, error) {
	// Fast path: a fully cached request is answered immediately — it
	// never joins a batch, waits out a coalescing window, or takes a
	// sweep slot.
	if res, ok := b.cache.Lookup(key, modes, actSeed); ok {
		return res, 1, true, nil
	}

	w := &waiter{ctx: ctx, modes: modes, actSeed: actSeed, ch: make(chan batchResult, 1)}

	if b.window <= 0 {
		// Coalescing disabled: claim the batch synchronously so every
		// request really does sweep alone — a racing request can never
		// join it, because it is never published in pending.
		bt := &batch{acts: []uint64{actSeed}, waiters: []*waiter{w}}
		for _, m := range modes {
			if !containsMode(bt.modes, m) {
				bt.modes = append(bt.modes, m)
			}
		}
		go b.exec(key, bt)
	} else {
		b.mu.Lock()
		bt, ok := b.pending[key]
		if !ok {
			bt = &batch{}
			b.pending[key] = bt
			time.AfterFunc(b.window, func() { b.run(key) })
		} else {
			b.coalesced.Inc()
		}
		bt.waiters = append(bt.waiters, w)
		for _, m := range modes {
			if !containsMode(bt.modes, m) {
				bt.modes = append(bt.modes, m)
			}
		}
		if !containsSeed(bt.acts, actSeed) {
			bt.acts = append(bt.acts, actSeed)
		}
		b.mu.Unlock()
	}

	select {
	case res := <-w.ch:
		if res.err != nil {
			return nil, res.size, false, res.err
		}
		out := make([]sre.Result, len(modes))
		for i, m := range modes {
			out[i] = res.byAct[actSeed][m]
		}
		return out, res.size, res.cached, nil
	case <-ctx.Done():
		return nil, 0, false, ctx.Err()
	}
}

// run claims the pending batch for key and executes it.
func (b *Batcher) run(key BatchKey) {
	b.mu.Lock()
	bt := b.pending[key]
	delete(b.pending, key)
	b.mu.Unlock()
	if bt == nil {
		return
	}
	b.exec(key, bt)
}

// exec executes one claimed batch: from the result cache when every
// (seed, mode) cell is present, otherwise as a sweep that then
// populates the cache.
func (b *Batcher) exec(key BatchKey, bt *batch) {
	deliver := func(res batchResult) {
		res.size = len(bt.waiters)
		for _, w := range bt.waiters {
			w.ch <- res // cap 1, one send per waiter: never blocks
		}
	}

	// Serve the whole batch from cache if possible — before counting a
	// sweep and before taking a sweep slot, so cache hits neither move
	// sre_serve_sweeps_total nor queue behind running sweeps.
	if byAct, ok := b.cache.LookupBatch(key, bt.modes, bt.acts); ok {
		deliver(batchResult{byAct: byAct, cached: true})
		return
	}
	b.sweeps.Inc()

	// The sweep is cancelled only once every waiter has abandoned it.
	runCtx, cancel := context.WithCancel(b.base)
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	var live atomic.Int64
	live.Store(int64(len(bt.waiters)))
	for _, w := range bt.waiters {
		go func(w *waiter) {
			select {
			case <-w.ctx.Done():
				if live.Add(-1) == 0 {
					b.cancels.Inc()
					cancel()
				}
			case <-done:
			}
		}(w)
	}

	deliver(b.sweep(runCtx, key, bt))
}

// sweep runs one claimed batch's sweep on a sweep slot and a pinned
// network and feeds the result cache. It returns only after both are
// released, so a waiter that has its reply also sees the slot free and
// the network unpinned.
func (b *Batcher) sweep(ctx context.Context, key BatchKey, bt *batch) batchResult {
	if err := b.budget.Acquire(ctx); err != nil {
		return batchResult{err: err}
	}
	defer b.budget.Release()

	net, release, err := b.registry.Get(ctx, key.Key)
	if err != nil {
		return batchResult{err: err}
	}
	defer release() // unpin: the registry may evict once the sweep is done
	opts := append([]sre.Option{
		sre.WithMaxWindows(key.MaxWindows),
		sre.WithIndexBits(key.IndexBits),
		sre.WithWorkers(b.workers),
	}, b.opts...)
	// Waiters differ (at most) in their activation seed: run the union
	// as one batched multi-activation sweep and fan out per (seed, mode).
	sets := make([]sre.ActivationSet, len(bt.acts))
	for i, seed := range bt.acts {
		sets[i] = sre.ActivationSet{ActSeed: seed}
	}
	grid, err := net.RunBatchContext(ctx, bt.modes, sets, opts...)
	if err != nil {
		return batchResult{err: err}
	}
	byAct := make(map[uint64]map[sre.Mode]sre.Result, len(bt.acts))
	for i, seed := range bt.acts {
		byMode := make(map[sre.Mode]sre.Result, len(grid[i]))
		for _, r := range grid[i] {
			// Strip the sweep-wide metrics snapshot: responses must be
			// bit-identical to a direct run, and /metrics serves the
			// aggregate view.
			r.Metrics = nil
			byMode[r.Mode] = r
		}
		byAct[seed] = byMode
	}
	b.populate(key, byAct)
	return batchResult{byAct: byAct}
}

// populate feeds every (seed, mode) cell of a completed sweep into the
// result cache.
func (b *Batcher) populate(key BatchKey, byAct map[uint64]map[sre.Mode]sre.Result) {
	if b.cache == nil {
		return
	}
	for seed, byMode := range byAct {
		for m, r := range byMode {
			b.cache.Put(key, m, seed, r)
		}
	}
}

func containsMode(ms []sre.Mode, m sre.Mode) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

func containsSeed(ss []uint64, s uint64) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
