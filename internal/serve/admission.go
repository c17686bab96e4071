// Admission control: the two valves between the HTTP edge and the
// simulator. The Gate is a bounded admission counter — requests beyond
// its depth are rejected immediately with a retryable error instead of
// queueing without bound — and it doubles as the drain latch: once
// closed, new requests bounce while the in-flight count runs down to
// zero, which is the signal graceful shutdown waits for. The Budget is
// a semaphore over concurrent sweeps, so N admitted requests cannot
// oversubscribe the internal/parallel pool: each sweep gets the
// configured worker width and excess requests wait their turn.
package serve

import (
	"context"
	"errors"
	"sync"

	"sre/internal/metrics"
)

// ErrSaturated reports a full admission queue (HTTP 503, retryable).
var ErrSaturated = errors.New("serve: admission queue full")

// ErrDraining reports a server that has stopped accepting work.
var ErrDraining = errors.New("serve: draining, not accepting requests")

// Gate is the bounded admission valve and drain latch.
type Gate struct {
	mu       sync.Mutex
	depth    int
	inflight int
	closed   bool
	drained  chan struct{}  // created by Close, closed at inflight==0
	gauge    *metrics.Gauge // high-water inflight; updated under mu
}

// NewGate returns a gate admitting at most depth concurrent requests
// (queued + running). depth <= 0 means 64.
func NewGate(depth int) *Gate {
	if depth <= 0 {
		depth = 64
	}
	return &Gate{depth: depth}
}

// Track publishes the gate's high-water in-flight count to g (nil-safe).
// The gauge moves inside the gate's own mutex, paired exactly with the
// Enter that admitted the request — a racing handler can no longer
// publish a stale read-back of Inflight. Call before serving begins.
func (g *Gate) Track(gauge *metrics.Gauge) { g.gauge = gauge }

// Enter admits one request, or reports ErrDraining/ErrSaturated.
// Every successful Enter must be paired with Leave.
func (g *Gate) Enter() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrDraining
	}
	if g.inflight >= g.depth {
		return ErrSaturated
	}
	g.inflight++
	g.gauge.Set(int64(g.inflight))
	return nil
}

// Leave releases one admitted request. An unpaired Leave (a bug in the
// caller) is ignored rather than driving the count negative — an
// underflowed gate would both over-admit (depth + |underflow| requests)
// and close the drain latch while real requests are still in flight.
func (g *Gate) Leave() {
	g.mu.Lock()
	if g.inflight == 0 {
		g.mu.Unlock()
		return
	}
	g.inflight--
	if g.closed && g.inflight == 0 && g.drained != nil {
		close(g.drained)
		g.drained = nil // idempotent-safe: only close once
	}
	g.mu.Unlock()
}

// Inflight returns the number of admitted, not-yet-finished requests.
func (g *Gate) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Close stops admitting (Enter returns ErrDraining from now on) and
// returns a channel that closes once every in-flight request has left.
// Safe to call more than once; later calls observe the same drain.
func (g *Gate) Close() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	done := make(chan struct{})
	if g.inflight == 0 {
		close(done)
		return done
	}
	if g.drained == nil {
		g.drained = make(chan struct{})
	}
	// Fan out: relay the single drained signal to this caller.
	go func(src <-chan struct{}) {
		<-src
		close(done)
	}(g.drained)
	return done
}

// Budget caps concurrent simulation sweeps.
type Budget struct {
	sem chan struct{}
}

// NewBudget returns a budget of n concurrent sweeps. n <= 0 means 2.
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = 2
	}
	return &Budget{sem: make(chan struct{}, n)}
}

// Acquire takes one sweep slot, blocking until one frees or ctx ends.
func (b *Budget) Acquire(ctx context.Context) error {
	select {
	case b.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a sweep slot.
func (b *Budget) Release() { <-b.sem }
