// Package parallel is the simulator's shared worker-pool loop.
//
// Pool.For is the only loop. It cuts [0, n) into contiguous chunks of
// ⌈n/(8·width)⌉ indices, clamped to [1, 32], and hands them out from
// one atomic cursor to the caller and to as many spawned workers as
// the pool has free slots. The modes of one sweep, the layers of one
// network, the windows and tiles of one layer all nest on one pool.
// For keeps these rules:
//
//   - Width bound. At most Workers() goroutines run loop bodies of one
//     pool at once, at any nesting depth: the outermost caller and each
//     spawned worker hold one slot. Spawning never waits; when no slot
//     is free, the caller claims every chunk itself.
//   - Lending. A caller that runs out of chunks while its workers still
//     run gives its slot back to the pool for the wait, so a loop
//     nested under one of those workers can spawn on it. Before For
//     returns, the caller takes a slot back, waiting for one to free if
//     a sibling loop took it first; a take-back that did not wait could
//     overshoot the width by one per lender.
//   - No deadlock. A take-back waits only on goroutines that are
//     running loop bodies, and those never wait on a lender. That holds
//     while no sync.Once body or held lock calls For on the same pool:
//     a body blocked on that lock would wait on a lender. The
//     simulator's are serial — MaskPlanes.maskPlane, Structure.PlanSet
//     and the progress lock of SimulateNetworkBatchContext — and must
//     stay so.
//   - Cancellation. No chunk is claimed once ctx is cancelled (chunks
//     already running finish), and For returns ctx.Err().
//   - Determinism. fn covers each index exactly once, in disjoint
//     ranges, and For reduces nothing: callers that write pre-sized
//     slots and reduce serially get one result at any width.
//
// A nil *Pool is valid and runs every chunk inline on the caller's
// goroutine.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool bounds concurrent workers. Create one with New.
type Pool struct {
	workers int
	mu      sync.Mutex
	freed   sync.Cond // signalled when a slot returns to free
	free    int       // slots held by no goroutine
	stats   atomic.Pointer[Stats]
}

// Stats is the pool's cumulative execution accounting, collected only
// after EnableStats: atomics updated once per For call or spawned
// worker, never per item.
type Stats struct {
	// ForCalls counts For invocations that dispatched work.
	ForCalls atomic.Int64
	// Items counts the total index-space size dispatched (Σ n).
	Items atomic.Int64
	// Chunks counts the chunks those calls cut (Σ ⌈n/chunk⌉).
	Chunks atomic.Int64
	// Spawned counts the workers For started beside its caller.
	Spawned atomic.Int64
	// SpawnWaitNanos sums, over spawned workers, the delay between the
	// spawn and the worker's first claim: the pool's queue wait.
	SpawnWaitNanos atomic.Int64
}

// EnableStats switches on execution accounting for this pool and
// returns the live Stats (idempotent; concurrent callers share one
// instance). A nil pool returns nil.
func (p *Pool) EnableStats() *Stats {
	if p == nil {
		return nil
	}
	if s := p.stats.Load(); s != nil {
		return s
	}
	p.stats.CompareAndSwap(nil, &Stats{})
	return p.stats.Load()
}

// Stats returns the pool's accounting, or nil when EnableStats was
// never called (or the pool is nil).
func (p *Pool) Stats() *Stats {
	if p == nil {
		return nil
	}
	return p.stats.Load()
}

// New returns a pool of the given width. width <= 0 means GOMAXPROCS.
func New(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: width, free: width - 1}
	p.freed.L = &p.mu
	return p
}

// Workers returns the pool's width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// For calls fn(start, end) on contiguous chunks that cover [0, n)
// exactly once, on the caller's goroutine and on as many spawned
// workers as the pool has free slots, under the package's rules. fn
// must be safe to run concurrently on disjoint ranges.
func (p *Pool) For(ctx context.Context, n int, fn func(start, end int)) error {
	if n <= 0 || ctx.Err() != nil {
		return ctx.Err()
	}
	width := p.Workers()
	chunk := chunkSize(n, width)
	nChunks := (n + chunk - 1) / chunk
	st := p.Stats()
	if st != nil {
		st.ForCalls.Add(1)
		st.Items.Add(int64(n))
		st.Chunks.Add(int64(nChunks))
	}
	var cursor atomic.Int64
	claim := func() {
		for ctx.Err() == nil {
			c := int(cursor.Add(1)) - 1
			if c >= nChunks {
				return
			}
			fn(c*chunk, min(c*chunk+chunk, n))
		}
	}
	var wg sync.WaitGroup
	spawned := 0
	for ; spawned < min(width, nChunks)-1 && p.tryTake(); spawned++ {
		wg.Add(1)
		var start time.Time
		if st != nil {
			st.Spawned.Add(1)
			start = time.Now()
		}
		go func() {
			defer wg.Done()
			defer p.give()
			if st != nil {
				st.SpawnWaitNanos.Add(time.Since(start).Nanoseconds())
			}
			claim()
		}()
	}
	claim()
	if spawned > 0 {
		p.give() // lend the caller's slot while its workers finish
		wg.Wait()
		p.take()
	}
	return ctx.Err()
}

// tryTake claims a free slot if there is one.
func (p *Pool) tryTake() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ok := p.free > 0
	if ok {
		p.free--
	}
	return ok
}

// take claims a slot, waiting for one to free.
func (p *Pool) take() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.free == 0 {
		p.freed.Wait()
	}
	p.free--
}

// give returns a slot to the pool.
func (p *Pool) give() {
	p.mu.Lock()
	p.free++
	p.mu.Unlock()
	p.freed.Signal()
}

// chunkSize is For's chunk length: ~8 chunks per worker leave slack
// for uneven item costs, and [1, 32] bounds both cursor contention and
// the tail one chunk can hold.
func chunkSize(n, width int) int {
	return min(max((n+8*width-1)/(8*width), 1), 32)
}
