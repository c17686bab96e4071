package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndCells(t *testing.T) {
	var r *Registry
	sh := r.Shard()
	if sh != nil {
		t.Fatal("nil registry must hand out nil shards")
	}
	// Every cell operation must be a safe no-op on the nil chain.
	sh.Counter("c").Add(3)
	sh.Counter("c").Inc()
	sh.Gauge("g").Set(7)
	sh.Histogram("h", []int64{1, 2}).Observe(1)
	sh.Histogram("h", []int64{1, 2}).ObserveN(2, 5)
	sh.Histogram("h", []int64{1, 2}).AddBuckets([]int64{1, 0, 2}, 9)
	if snap := r.Snapshot(); snap != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestCounterGaugeHistogramMerge(t *testing.T) {
	r := NewRegistry()
	a, b := r.Shard(), r.Shard()
	a.Counter("ops").Add(5)
	b.Counter("ops").Add(7)
	a.Gauge("width").Set(4)
	b.Gauge("width").Set(2) // lower value must not win
	bounds := []int64{1, 2, 4, 8, 16}
	ha := a.Histogram("occ", bounds)
	hb := b.Histogram("occ", bounds)
	ha.Observe(1)      // bucket le=1
	ha.ObserveN(16, 3) // bucket le=16, three observations
	hb.Observe(5)      // bucket le=8
	hb.Observe(100)    // overflow bucket
	snap := r.Snapshot()
	if got := snap.Counters["ops"]; got != 12 {
		t.Fatalf("ops = %d, want 12", got)
	}
	if got := snap.Gauges["width"]; got != 4 {
		t.Fatalf("width = %d, want 4", got)
	}
	h := snap.Histograms["occ"]
	wantCounts := []int64{1, 0, 0, 1, 3, 1}
	if !reflect.DeepEqual(h.Counts, wantCounts) {
		t.Fatalf("occ counts = %v, want %v", h.Counts, wantCounts)
	}
	if h.Count != 6 || h.Sum != 1+3*16+5+100 {
		t.Fatalf("occ count=%d sum=%d", h.Count, h.Sum)
	}
	if !reflect.DeepEqual(h.Bounds, bounds) {
		t.Fatalf("occ bounds = %v", h.Bounds)
	}
}

// TestMergeDeterministic pins the registry's core contract: the merged
// snapshot of a fixed set of observations is identical no matter how
// the observations were sharded.
func TestMergeDeterministic(t *testing.T) {
	build := func(shards int) *Snapshot {
		r := NewRegistry()
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sh := r.Shard()
				c := sh.Counter("n")
				h := sh.Histogram("h", []int64{4, 8})
				g := sh.Gauge("hw")
				for i := s; i < 100; i += shards {
					c.Add(int64(i))
					h.Observe(int64(i % 12))
					g.Set(int64(i))
				}
			}(s)
		}
		wg.Wait()
		return r.Snapshot()
	}
	want := build(1)
	for _, shards := range []int{2, 7, 16} {
		got := build(shards)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: %+v != %+v", shards, got, want)
		}
	}
}

// fillShard writes shard i's observations for the release tests: a
// counter, a counter that is created but never added to, a gauge only
// ever set to 0, a high-water gauge, and histograms whose sums and
// counts must survive the fold.
func fillShard(sh *Shard, i int) {
	sh.Counter("ops").Add(int64(i + 1))
	sh.Counter("untouched")
	sh.Gauge("zero").Set(0)
	sh.Gauge("hw").Set(int64(i % 7))
	sh.Histogram("occ", []int64{1, 2, 4, 8, 16}).ObserveN(int64(i%20), int64(i%3+1))
	if i%5 == 0 {
		sh.Histogram("rare", []int64{10}).Observe(int64(i))
	}
}

// keptSnapshot is the snapshot of shards 0..n-1 filled by fillShard and
// never released.
func keptSnapshot(n int) *Snapshot {
	r := NewRegistry()
	for i := 0; i < n; i++ {
		fillShard(r.Shard(), i)
	}
	return r.Snapshot()
}

// TestReleaseMatchesUnreleased pins Release's contract: folding finished
// shards into the registry, in any order and with snapshots taken in
// between, yields exactly the snapshot of a registry that never
// released any.
func TestReleaseMatchesUnreleased(t *testing.T) {
	const n = 24
	want := keptSnapshot(n)
	if v, ok := want.Gauges["zero"]; !ok || v != 0 {
		t.Fatalf("zero gauge = %d (present %v), want a present 0", v, ok)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		var done []*Shard // filled, not yet released
		for _, i := range rng.Perm(n) {
			sh := r.Shard()
			fillShard(sh, i)
			done = append(done, sh)
			for len(done) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(done))
				r.Release(done[k])
				done = append(done[:k], done[k+1:]...)
				if rng.Intn(2) == 0 {
					// A caller may scribble on its snapshot; that must not
					// reach the registry's folded totals.
					snap := r.Snapshot()
					if h, ok := snap.Histograms["occ"]; ok {
						h.Counts[0] += 1000
					}
				}
			}
		}
		if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %d shards live: %+v != %+v", seed, len(done), got, want)
		}
		for _, sh := range done {
			r.Release(sh)
			r.Release(sh) // a second release is a no-op
		}
		if len(r.live) != 0 {
			t.Fatalf("seed %d: %d shards still tracked after releasing all", seed, len(r.live))
		}
		if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, all released: %+v != %+v", seed, got, want)
		}
	}
}

// TestReleaseConcurrentScrape releases shards from several goroutines
// while the test goroutine scrapes. Each scrape must see every shard
// exactly once, live or folded: the counter total never falls between
// scrapes and never exceeds the final sum. Run under -race.
func TestReleaseConcurrentScrape(t *testing.T) {
	const workers, perWorker = 8, 40
	want := keptSnapshot(workers * perWorker)
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sh := r.Shard()
				fillShard(sh, w*perWorker+i)
				r.Release(sh)
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	var last int64
	for scraping := true; scraping; {
		select {
		case <-finished:
			scraping = false
		default:
		}
		ops := r.Snapshot().Counters["ops"]
		if ops < last || ops > want.Counters["ops"] {
			t.Fatalf("scrape saw ops = %d after %d (final %d)", ops, last, want.Counters["ops"])
		}
		last = ops
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v != %+v", got, want)
	}
}

// TestAddBucketsMatchesObserveN pins AddBuckets to the ObserveN calls
// it stands for: random observations recorded one call each into one
// histogram, and as per-bucket counts plus their sum into another, give
// equal snapshots.
func TestAddBucketsMatchesObserveN(t *testing.T) {
	bounds := []int64{1, 2, 4, 8, 16, 32, 64, 128}
	rng := rand.New(rand.NewSource(3))
	r := NewRegistry()
	sh := r.Shard()
	each, batched := sh.Histogram("each", bounds), sh.Histogram("batched", bounds)
	for round := 0; round < 40; round++ {
		counts := make([]int64, len(bounds)+1)
		var sum int64
		for i := rng.Intn(30); i > 0; i-- {
			v, n := rng.Int63n(300), rng.Int63n(4)+1
			each.ObserveN(v, n)
			counts[sort.Search(len(bounds), func(k int) bool { return v <= bounds[k] })] += n
			sum += v * n
		}
		batched.AddBuckets(counts, sum)
	}
	snap := r.Snapshot()
	got, want := snap.Histograms["batched"], snap.Histograms["each"]
	if want.Count == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("AddBuckets %+v, ObserveN %+v", got, want)
	}
}

func TestAddBucketsMismatchPanics(t *testing.T) {
	h := NewRegistry().Shard().Histogram("h", []int64{1, 2})
	for _, counts := range [][]int64{nil, {1, 2}, {1, 2, 3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d counts for 3 buckets: no panic", len(counts))
				}
			}()
			h.AddBuckets(counts, 0)
		}()
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	sh := r.Shard()
	sh.Counter(`b_total{mode="dof"}`).Add(2)
	sh.Counter(`a_total`).Add(1)
	var buf1, buf2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("JSON snapshot not byte-stable")
	}
	var round Snapshot
	if err := json.Unmarshal(buf1.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters[`b_total{mode="dof"}`] != 2 {
		t.Fatalf("round-trip lost labeled counter: %+v", round)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	sh := r.Shard()
	sh.Counter(`sre_ou_total{mode="dof"}`).Add(9)
	sh.Gauge("sre_pool_width").Set(4)
	h := sh.Histogram(`sre_occ{mode="dof"}`, []int64{8, 16})
	h.Observe(3)
	h.Observe(20)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sre_ou_total counter",
		`sre_ou_total{mode="dof"} 9`,
		"# TYPE sre_pool_width gauge",
		"sre_pool_width 4",
		"# TYPE sre_occ histogram",
		`sre_occ_bucket{mode="dof",le="8"} 1`,
		`sre_occ_bucket{mode="dof",le="16"} 1`,
		`sre_occ_bucket{mode="dof",le="+Inf"} 2`,
		`sre_occ_sum{mode="dof"} 23`,
		`sre_occ_count{mode="dof"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	sh := r.Shard()
	sh.Counter("c").Inc()
	sh.Gauge("a").Set(1)
	sh.Histogram("b", []int64{1}).Observe(1)
	got := r.Snapshot().Names()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Shard().Counter("n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Shard().Histogram("h", []int64{1, 2, 4, 8, 16, 32, 64, 128})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveN(int64(i&15)+1, 2)
	}
}

func BenchmarkDisabledCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
