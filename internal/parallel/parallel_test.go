package parallel

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8, 64} {
		p := New(width)
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			hits := make([]int32, n)
			err := p.For(context.Background(), n, func(start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if err != nil {
				t.Fatalf("width %d n %d: %v", width, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("width %d n %d: index %d hit %d times", width, n, i, h)
				}
			}
		}
	}
}

// TestForShardsAreContiguous checks that every chunk is a non-empty
// contiguous range of the documented size, the last one possibly
// shorter.
func TestForShardsAreContiguous(t *testing.T) {
	for _, c := range []struct{ width, n, chunk int }{
		{4, 10, 1}, {2, 100, 7}, {1, 1000, 32}, {64, 3, 1},
	} {
		p := New(c.width)
		var got atomic.Int64
		err := p.For(context.Background(), c.n, func(start, end int) {
			if start%c.chunk != 0 || (end-start != c.chunk && end != c.n) || end <= start {
				t.Errorf("width %d n %d: chunk [%d,%d), want size %d", c.width, c.n, start, end, c.chunk)
			}
			for i := start; i < end; i++ {
				got.Add(int64(i))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(c.n * (c.n - 1) / 2); got.Load() != want {
			t.Fatalf("width %d n %d: sum of indexes = %d, want %d", c.width, c.n, got.Load(), want)
		}
	}
}

// TestForDeterministicWrites pins the determinism contract: per-index
// results written to disjoint slots are identical at every width,
// because each index is claimed exactly once.
func TestForDeterministicWrites(t *testing.T) {
	for _, n := range []int{1, 37, 500, 5000} {
		want := make([]int64, n)
		for i := range want {
			want[i] = int64(i) * int64(i)
		}
		for _, p := range []*Pool{nil, New(1), New(4), New(16)} {
			got := make([]int64, n)
			if err := p.For(context.Background(), n, func(start, end int) {
				for i := start; i < end; i++ {
					got[i] = int64(i) * int64(i)
				}
			}); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("width %d n %d: slot %d = %d, want %d", p.Workers(), n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	for _, width := range []int{2, 4} {
		p := New(width)
		var count atomic.Int64
		err := p.For(context.Background(), 8, func(start, end int) {
			for i := start; i < end; i++ {
				if err := p.For(context.Background(), 16, func(s, e int) {
					for j := s; j < e; j++ {
						if err := p.For(context.Background(), 100, func(s, e int) {
							count.Add(int64(e - s))
						}); err != nil {
							t.Error(err)
						}
					}
				}); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if count.Load() != 8*16*100 {
			t.Fatalf("width %d: inner iterations = %d, want %d", width, count.Load(), 8*16*100)
		}
		if p.free != width-1 {
			t.Fatalf("width %d: %d free slots after the loops, want %d", width, p.free, width-1)
		}
	}
}

// TestForLendsWaitingSlot pins lending: at width 2, one body of an
// outer loop over two items returns at once and the other runs nested
// loops. Whichever goroutine draws the long item, a nested loop must
// get a second worker, because the other goroutine's slot is free — a
// finished worker gives its slot back, and a caller waiting on its
// worker lends its own.
func TestForLendsWaitingSlot(t *testing.T) {
	p := New(2)
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	var started atomic.Int32
	paired := false
	err := p.For(ctx, 2, func(start, end int) {
		for i := start; i < end; i++ {
			if started.Add(1) == 1 {
				continue
			}
			for !paired && time.Now().Before(deadline) {
				var running, most atomic.Int32
				if err := p.For(ctx, 2, func(s, e int) {
					running.Add(1)
					defer running.Add(-1)
					// Wait briefly for a partner body.
					for t0 := time.Now(); time.Since(t0) < 20*time.Millisecond; time.Sleep(50 * time.Microsecond) {
						if r := running.Load(); r > 1 {
							most.Store(r)
							return
						}
					}
				}); err != nil {
					t.Error(err)
				}
				paired = most.Load() > 1
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !paired {
		t.Fatal("no nested loop ran two bodies at once: the waiting goroutine's slot was not lent")
	}
}

// TestForWidthBound runs three nesting levels with skewed loop sizes
// and body times, and counts the innermost bodies running at once: the
// maximum never exceeds the pool's width. A take-back that did not wait
// for a free slot overshoots here when two sibling loops take the slots
// a lender and its finished worker gave back.
func TestForWidthBound(t *testing.T) {
	ctx := context.Background()
	for _, width := range []int{2, 3, 4} {
		for rep := 0; rep < 10; rep++ {
			p := New(width)
			var running, most atomic.Int32
			err := p.For(ctx, 7, func(s0, e0 int) {
				for i := s0; i < e0; i++ {
					_ = p.For(ctx, 5+i%3, func(s1, e1 int) {
						for range e1 - s1 {
							_ = p.For(ctx, 3, func(s2, e2 int) {
								r := running.Add(1)
								for m := most.Load(); r > m && !most.CompareAndSwap(m, r); m = most.Load() {
								}
								time.Sleep(time.Duration(s2+1) * 10 * time.Microsecond)
								running.Add(-1)
							})
						}
					})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if m := most.Load(); m > int32(width) || m < 2 {
				t.Fatalf("width %d: %d innermost bodies ran at once, want 2..%d", width, m, width)
			}
			if p.free != width-1 {
				t.Fatalf("width %d: %d free slots after the loops, want %d", width, p.free, width-1)
			}
		}
	}
}

func TestForCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []*Pool{nil, New(1), New(4)} {
		ran := false
		if err := p.For(ctx, 100, func(start, end int) { ran = true }); err != context.Canceled {
			t.Fatalf("width %d: err = %v, want context.Canceled", p.Workers(), err)
		}
		if ran {
			t.Fatalf("width %d: claimed a chunk on a cancelled context", p.Workers())
		}
	}

	// A cancel mid-run stops the claiming: 10000 items at width 4 are
	// 313 chunks of 32.
	ctx, cancel = context.WithCancel(context.Background())
	var ran atomic.Int64
	err := New(4).For(ctx, 10000, func(start, end int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 313 {
		t.Fatal("cancellation did not stop chunk claiming")
	}
}

func TestForCancelDuringRun(t *testing.T) {
	p := New(1) // serial: cancellation observed after the first chunk
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := p.For(ctx, 4, func(start, end int) { calls++; cancel() })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("%d chunks ran, want 1", calls)
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool width %d", p.Workers())
	}
	if p.EnableStats() != nil || p.Stats() != nil {
		t.Fatal("nil pool keeps stats")
	}
	for _, n := range []int{5, 10, 1000} {
		sum := 0
		if err := p.For(context.Background(), n, func(start, end int) {
			for i := start; i < end; i++ {
				sum += i
			}
		}); err != nil {
			t.Fatal(err)
		}
		if sum != n*(n-1)/2 {
			t.Fatalf("n %d: sum = %d, want %d", n, sum, n*(n-1)/2)
		}
	}
}

func TestForStats(t *testing.T) {
	p := New(4)
	st := p.EnableStats()
	if p.EnableStats() != st || p.Stats() != st {
		t.Fatal("EnableStats is not idempotent")
	}
	if err := p.For(context.Background(), 100, func(start, end int) {}); err != nil {
		t.Fatal(err)
	}
	if err := p.For(context.Background(), 0, func(start, end int) {}); err != nil {
		t.Fatal(err)
	}
	if st.ForCalls.Load() != 1 {
		t.Fatalf("ForCalls = %d, want 1", st.ForCalls.Load())
	}
	if st.Chunks.Load() != 25 { // chunks of ⌈100/32⌉ = 4
		t.Fatalf("Chunks = %d, want 25", st.Chunks.Load())
	}
	if w := st.Spawned.Load(); w < 0 || w > 3 {
		t.Fatalf("Spawned = %d, want 0..3", w)
	}
	if st.Items.Load() != 100 {
		t.Fatalf("Items = %d, want 100", st.Items.Load())
	}
}
