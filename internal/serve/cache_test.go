package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"sre"
	"sre/internal/metrics"
)

// TestCachedRepeatBitIdenticalNoSweep is the result cache's core
// contract, end to end: the identical request repeated is served from
// the cache (cached=true), bit-identical to both the first response
// and a direct library run, WITHOUT moving sre_serve_sweeps_total.
// Both replies are compact JSON and a newline, byte for byte what
// json.Marshal makes of them, and differ only in "cached".
func TestCachedRepeatBitIdenticalNoSweep(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := `{"network":"MNIST","modes":["baseline","orc+dof"],"config":{"max_windows":6}}`
	status, body := postSimulate(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, body)
	}
	first := decodeSimulate(t, body)
	if first.Cached {
		t.Fatal("first request reported cached=true")
	}
	sweptBody := body

	status, body = postSimulate(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("repeat request: status %d: %s", status, body)
	}
	second := decodeSimulate(t, body)
	if !second.Cached {
		t.Fatal("repeated identical request was not served from the cache")
	}
	for _, r := range []struct {
		name string
		body []byte
		resp SimulateResponse
	}{{"swept", sweptBody, first}, {"cached", body, second}} {
		want, err := json.Marshal(r.resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.body, append(want, '\n')) {
			t.Errorf("%s reply is not compact JSON and a newline:\n got %.300q\nwant %.300q", r.name, r.body, append(want, '\n'))
		}
	}
	if got := bytes.Replace(sweptBody, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(got, body) {
		t.Errorf("the cached reply differs from the swept one beyond \"cached\"")
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatalf("cached results differ from swept ones\n got %+v\nwant %+v",
			second.Results, first.Results)
	}
	wantModes := []sre.Mode{sre.Baseline, sre.ORCDOF}
	for i, m := range wantModes {
		want := expect(t, m, sre.WithMaxWindows(6))
		if !reflect.DeepEqual(second.Results[i], want) {
			t.Errorf("mode %v: cached result differs from direct RunContext", m)
		}
	}

	vals := parseProm(t, promBody(t, ts.URL))
	if got := vals["sre_serve_sweeps_total"]; got != 1 {
		t.Errorf("sweeps_total = %v after a cached repeat, want 1", got)
	}
	if got := vals["sre_serve_requests_total"]; got != 2 {
		t.Errorf("requests_total = %v, want 2", got)
	}
	if got := vals["sre_serve_result_cache_hits_total"]; got != float64(len(wantModes)) {
		t.Errorf("result_cache_hits_total = %v, want %d", got, len(wantModes))
	}
	if got := vals["sre_serve_result_cache_misses_total"]; got != float64(len(wantModes)) {
		t.Errorf("result_cache_misses_total = %v, want %d (the first request's cells)", got, len(wantModes))
	}
	if vals["sre_serve_result_cache_bytes"] <= 0 {
		t.Error("result_cache_bytes gauge never moved")
	}
}

// TestPartialHitSweepsOnlyMissingModes: a request whose baseline cell
// is cached (baseline reads no activations, so act_seed 42's sweep
// filled the cell every seed shares) but whose orc+dof cell is not
// sweeps only orc+dof. It reports cached=false, since a sweep ran, runs
// no baseline layer, counts one hit and one miss, and answers in
// request order with the library's results at its own seed.
func TestPartialHitSweepsOnlyMissingModes(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","modes":["baseline"],"config":{"max_windows":6},"act_seed":42}`); status != http.StatusOK {
		t.Fatalf("baseline request: status %d: %s", status, body)
	}
	const baselineLayers = `sre_core_layers_total{mode="baseline"}`
	before := parseProm(t, promBody(t, ts.URL))
	if before[baselineLayers] == 0 {
		t.Fatalf("%s is 0 after a baseline sweep; the series name is wrong", baselineLayers)
	}
	status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","modes":["orc+dof","baseline"],"config":{"max_windows":6},"act_seed":43}`)
	if status != http.StatusOK {
		t.Fatalf("partial-hit request: status %d: %s", status, body)
	}
	resp := decodeSimulate(t, body)
	after := parseProm(t, promBody(t, ts.URL))

	if resp.Cached {
		t.Error("a partial hit that swept reported cached=true")
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{"sre_serve_sweeps_total", 1},
		{baselineLayers, 0},
		{"sre_serve_result_cache_hits_total", 1},
		{"sre_serve_result_cache_misses_total", 1},
	} {
		if got := after[c.name] - before[c.name]; got != c.want {
			t.Errorf("%s moved by %v, want %v", c.name, got, c.want)
		}
	}
	grid, err := mnistDirect(t).RunBatchContext(context.Background(), []sre.Mode{sre.ORCDOF, sre.Baseline},
		[]sre.ActivationSet{{ActSeed: 43}}, sre.WithMaxWindows(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Results, grid[0]) {
		t.Error("partial-hit results differ from the library's RunBatchContext at act_seed 43, in request order")
	}
}

// TestBuildSeedActSeedSharesOwnCell proves act_seed equal to the build
// seed names the network's own activations, as act_seed 0 does: after
// an act_seed 0 request, the same request with act_seed 1 (the default
// build seed) is answered from the cache, bit-identical, with one
// sweep in total.
func TestBuildSeedActSeedSharesOwnCell(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := `{"network":"MNIST","modes":["baseline","orc+dof"],"config":{"max_windows":6},"act_seed":%d}`
	var resps []SimulateResponse
	for _, seed := range []uint64{0, sre.DefaultConfig().Seed} {
		status, body := postSimulate(t, ts.URL, fmt.Sprintf(req, seed))
		if status != http.StatusOK {
			t.Fatalf("act_seed %d: status %d: %s", seed, status, body)
		}
		resps = append(resps, decodeSimulate(t, body))
	}
	if resps[0].Cached || !resps[1].Cached {
		t.Fatalf("cached = %v, %v; want false, then true", resps[0].Cached, resps[1].Cached)
	}
	if !reflect.DeepEqual(resps[0].Results, resps[1].Results) {
		t.Fatal("build-seed act_seed results differ from act_seed 0's")
	}
	if got := parseProm(t, promBody(t, ts.URL))["sre_serve_sweeps_total"]; got != 1 {
		t.Errorf("sweeps_total = %v, want 1", got)
	}
}

// TestResultCacheDisabled proves ResultCacheBytes < 0 really disables
// caching: repeats sweep again and never claim cached=true.
func TestResultCacheDisabled(t *testing.T) {
	srv := NewServer(Options{ResultCacheBytes: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := `{"network":"MNIST","mode":"baseline","config":{"max_windows":6}}`
	for i := 0; i < 2; i++ {
		status, body := postSimulate(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		if resp := decodeSimulate(t, body); resp.Cached {
			t.Fatalf("request %d: cached=true with the cache disabled", i)
		}
	}
	vals := parseProm(t, promBody(t, ts.URL))
	if got := vals["sre_serve_sweeps_total"]; got != 2 {
		t.Errorf("sweeps_total = %v with cache disabled, want 2", got)
	}
}

// TestResultCacheEviction drives the LRU under a byte cap sized for
// roughly two entries: accounted bytes stay bounded, the eviction
// counter moves, the oldest entry is gone, and the newest survive.
func TestResultCacheEviction(t *testing.T) {
	res := sre.Result{Network: "MNIST", Layers: make([]sre.LayerResult, 4)}
	one := resultSizeBytes(res)

	reg := metrics.NewRegistry()
	shard := reg.Shard()
	evictions := shard.Counter("evictions")
	c := NewResultCache(2*one+one/2, shard.Counter("hits"), shard.Counter("misses"), evictions, shard.Gauge("bytes"))

	key := func(i int) BatchKey { return BatchKey{MaxWindows: i} }
	cached := func(i int) bool {
		_, missing := c.Lookup(key(i), []sre.Mode{sre.Baseline}, 0)
		return len(missing) == 0
	}
	for i := 0; i < 5; i++ {
		c.Put(key(i), sre.Baseline, 0, res)
		if c.Bytes() > 2*one+one/2 {
			t.Fatalf("after put %d: accounted bytes %d exceed the cap", i, c.Bytes())
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d under a two-entry cap, want 2", c.Len())
	}
	if got := reg.Snapshot().Counters["evictions"]; got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	if cached(0) {
		t.Fatal("evicted entry still served")
	}
	for i := 3; i < 5; i++ {
		if !cached(i) {
			t.Fatalf("recent entry %d was evicted", i)
		}
	}

	// Recency: touching the older survivor makes the newer one the
	// eviction victim on the next insert.
	cached(3)
	c.Put(key(5), sre.Baseline, 0, res)
	if !cached(3) {
		t.Fatal("recently-touched entry was evicted instead of the LRU one")
	}
	if cached(4) {
		t.Fatal("LRU entry survived past the cap")
	}

	// An entry bigger than the whole cap is refused outright.
	big := sre.Result{Layers: make([]sre.LayerResult, 4096)}
	c.Put(key(6), sre.Baseline, 0, big)
	if cached(6) {
		t.Fatal("cached an entry larger than the cap")
	}
}

// TestResultCacheNil proves the nil cache (caching disabled) is safe
// to call everywhere the server does.
func TestResultCacheNil(t *testing.T) {
	var c *ResultCache
	if c != NewResultCache(0, nil, nil, nil, nil) {
		t.Fatal("NewResultCache(0) != nil")
	}
	c.Put(BatchKey{}, sre.Baseline, 0, sre.Result{})
	c.tally(1, 1)
	modes := []sre.Mode{sre.Baseline, sre.ORCDOF}
	if res, missing := c.Lookup(BatchKey{}, modes, 0); len(res) != len(modes) || !reflect.DeepEqual(missing, []int{0, 1}) {
		t.Fatalf("nil cache Lookup = %d results, missing %v; want %d results and every index missing", len(res), missing, len(modes))
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache reports contents")
	}
}

// registryKey returns a distinct MNIST design point per i (the build
// seed forks the key, so each i is a separate resident network).
func registryKey(i int) Key {
	cfg := sre.DefaultConfig()
	cfg.Seed = uint64(100 + i)
	return KeyFor("MNIST", sre.SSL, cfg)
}

// TestRegistryEvictionBounded is the bounded-memory claim under churn:
// with a byte cap of about two networks, touching six distinct keys
// keeps accounted resident bytes within cap + one network (the
// documented MRU overshoot) and evicts the cold majority.
func TestRegistryEvictionBounded(t *testing.T) {
	r := NewRegistry()
	_, release, err := r.Get(context.Background(), registryKey(0))
	if err != nil {
		t.Fatal(err)
	}
	release()
	one := r.ResidentBytes()
	if one <= 0 {
		t.Fatalf("ResidentBytes() = %d after a build, want > 0", one)
	}

	reg := metrics.NewRegistry()
	shard := reg.Shard()
	cap := 2 * one
	r.Bound(cap, shard.Counter("evictions"), shard.Counter("evicted_bytes"), shard.Gauge("bytes"))

	for i := 1; i < 6; i++ {
		_, release, err := r.Get(context.Background(), registryKey(i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		release()
		// Size estimates differ per seed only marginally; allow the
		// documented one-network overshoot with headroom.
		if got := r.ResidentBytes(); got > cap+2*one {
			t.Fatalf("after key %d: resident bytes %d exceed cap %d + one network", i, got, cap)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["evictions"] == 0 {
		t.Fatal("six networks under a two-network cap evicted nothing")
	}
	if snap.Counters["evicted_bytes"] <= 0 {
		t.Fatal("evicted_bytes never moved")
	}
	if got := len(r.Keys()); got > 3 {
		t.Fatalf("%d networks resident under a two-network cap", got)
	}
}

// TestRegistryNeverEvictsPinned pins one network through heavy
// same-registry churn (concurrent, so `go test -race` checks the
// locking) and requires it to survive eviction pressure for as long as
// the pin is held — then become evictable once released.
func TestRegistryNeverEvictsPinned(t *testing.T) {
	r := NewRegistry()
	pinnedNet, release, err := r.Get(context.Background(), registryKey(0))
	if err != nil {
		t.Fatal(err)
	}
	one := r.ResidentBytes()
	// Cap below one network: everything unpinned and non-MRU is evicted
	// on sight, the hardest pressure the pin can face.
	reg := metrics.NewRegistry()
	shard := reg.Shard()
	r.Bound(one/2, shard.Counter("evictions"), shard.Counter("evicted_bytes"), shard.Gauge("bytes"))

	builds := r.Builds()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				_, rel, err := r.Get(context.Background(), registryKey(1+w%2))
				if err != nil {
					t.Errorf("churn %d: %v", w, err)
					return
				}
				rel()
			}
		}(w)
	}
	wg.Wait()

	// The pinned network must still be resident: a fresh Get returns
	// the same instance without building.
	got, rel2, err := r.Get(context.Background(), registryKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != pinnedNet {
		t.Fatal("pinned network was evicted and rebuilt under churn")
	}
	rel2()
	churnBuilds := r.Builds() - builds

	// Released, it is ordinary LRU prey: more churn evicts it, and the
	// next Get builds anew.
	release()
	for i := 0; i < 2; i++ {
		_, rel, err := r.Get(context.Background(), registryKey(3+i))
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	before := r.Builds()
	got2, rel3, err := r.Get(context.Background(), registryKey(0))
	if err != nil {
		t.Fatal(err)
	}
	rel3()
	if r.Builds() != before+1 {
		t.Fatalf("released network under a sub-network cap was not evicted (builds %d -> %d, churn builds %d)",
			before, r.Builds(), churnBuilds)
	}
	if got2 == pinnedNet {
		t.Fatal("rebuilt network is the evicted instance")
	}
}

// TestGateLeaveUnderflow: an unpaired Leave must not drive the
// in-flight count negative — before the guard, it would both over-admit
// and make Close's drain latch fire while a real request was still in
// flight.
func TestGateLeaveUnderflow(t *testing.T) {
	reg := metrics.NewRegistry()
	gauge := reg.Shard().Gauge("inflight")
	g := NewGate(2)
	g.Track(gauge)

	g.Leave() // unpaired: must be ignored
	if got := g.Inflight(); got != 0 {
		t.Fatalf("Inflight() = %d after an unpaired Leave, want 0", got)
	}
	if err := g.Enter(); err != nil {
		t.Fatal(err)
	}
	if got := g.Inflight(); got != 1 {
		t.Fatalf("Inflight() = %d after Enter, want 1 (underflow absorbed it)", got)
	}

	done := g.Close()
	select {
	case <-done:
		t.Fatal("drain latch closed while a request was in flight")
	default:
	}
	g.Leave()
	// Close relays the drain signal through a goroutine; give it a beat.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain latch did not close once the last request left")
	}
	if got := reg.Snapshot().Gauges["inflight"]; got != 1 {
		t.Fatalf("inflight gauge high-water = %v, want 1", got)
	}
}
