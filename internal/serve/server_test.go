package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sre"
)

// directMNIST builds MNIST once, directly through the library, as the
// reference the served results must be bit-identical to.
var (
	directOnce sync.Once
	directNet  *sre.Network
	directErr  error
)

func mnistDirect(t *testing.T) *sre.Network {
	t.Helper()
	directOnce.Do(func() { directNet, directErr = sre.Load("MNIST") })
	if directErr != nil {
		t.Fatalf("direct Load(MNIST): %v", directErr)
	}
	return directNet
}

// expect runs mode directly with the given run options; served results
// must DeepEqual this (both sides carry no metrics snapshot).
func expect(t *testing.T, mode sre.Mode, opts ...sre.Option) sre.Result {
	t.Helper()
	res, err := mnistDirect(t).RunContext(context.Background(), mode, opts...)
	if err != nil {
		t.Fatalf("direct Run(%v): %v", mode, err)
	}
	res.Metrics = nil
	return res
}

func postSimulate(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/simulate: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func decodeSimulate(t *testing.T, b []byte) SimulateResponse {
	t.Helper()
	var out SimulateResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("decode response %s: %v", b, err)
	}
	return out
}

// parsePromErr parses the Prometheus text exposition into name → value,
// reporting the first malformed line.
func parsePromErr(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

func parseProm(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	vals, err := parsePromErr(body)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestServedResultBitIdentical(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","modes":["baseline","orc+dof","dof"],"config":{"max_windows":6}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp := decodeSimulate(t, body)
	if resp.Network != "MNIST" || resp.Prune != "ssl" {
		t.Fatalf("echoed identity = %q/%q", resp.Network, resp.Prune)
	}
	if resp.BatchSize != 1 {
		t.Fatalf("batch_size = %d, want 1", resp.BatchSize)
	}
	wantModes := []sre.Mode{sre.Baseline, sre.ORCDOF, sre.DOF}
	if len(resp.Results) != len(wantModes) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(wantModes))
	}
	for i, m := range wantModes {
		want := expect(t, m, sre.WithMaxWindows(6))
		if !reflect.DeepEqual(resp.Results[i], want) {
			t.Errorf("mode %v: served result differs from direct RunContext\n got %+v\nwant %+v",
				m, resp.Results[i], want)
		}
	}
}

// TestSimulateWSSRoundTrip proves the version-2 wire surface end to
// end: the wss spellings parse, slice_cap selects its own resident
// design point, and the served result is bit-identical to a direct
// run with the same build options.
func TestSimulateWSSRoundTrip(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","modes":["orc+dof","orc+dof+wss"],"config":{"max_windows":6,"slice_cap":2}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp := decodeSimulate(t, body)
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	net, err := sre.Load("MNIST", sre.WithMaxWindows(6), sre.WithSliceCap(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, mode := range []sre.Mode{sre.ORCDOF, sre.ORCDOFWSS} {
		want, err := net.RunContext(context.Background(), mode, sre.WithMaxWindows(6))
		if err != nil {
			t.Fatal(err)
		}
		want.Metrics = nil
		if !reflect.DeepEqual(resp.Results[i], want) {
			t.Errorf("mode %v: served result differs from direct run\n got %+v\nwant %+v",
				mode, resp.Results[i], want)
		}
	}
	if resp.Results[1].Version != 2 {
		t.Fatalf("Result.Version = %d, want 2", resp.Results[1].Version)
	}
	// The capped design point must be resident under its own key.
	found := false
	for _, k := range srv.Registry().Keys() {
		if strings.Contains(k.String(), "slicecap2") {
			found = true
		}
	}
	if !found {
		t.Fatal("slice-capped design point not resident under a slicecap key")
	}
}

func TestSimulateRequestValidation(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`{"network":"NoSuchNet","mode":"orc"}`, http.StatusNotFound},
		{`{"network":"MNIST"}`, http.StatusBadRequest},                            // no modes
		{`{"network":"MNIST","mode":"warp-drive"}`, http.StatusBadRequest},        // bad mode
		{`{"network":"MNIST","mode":"orc","prune":"zap"}`, http.StatusBadRequest}, // bad prune
		{`{"network":"MNIST","mode":"orc","config":{"crossbar":-4}}`, http.StatusBadRequest},
		{`{"network":"MNIST","mode":"orc+dof","config":{"act_bits":40}}`, http.StatusBadRequest}, // codes are uint32
		{`{"network":"MNIST","mode":"orc","config":{"index_bits":31}}`, http.StatusBadRequest},   // past the encoder's 30
		{`{"network":"MNIST","mode":"orc","config":{"index_bits":-1}}`, http.StatusBadRequest},
		{`{"network":"MNIST","mode":"orc+dof","config":{"crossbar":1073741824}}`, http.StatusBadRequest}, // 2^30 rows of scratch
		{`{"network":"MNIST","mode":"orc+dof","config":{"max_windows":-1}}`, http.StatusBadRequest},      // 0 means every window
		{`not json`, http.StatusBadRequest},
		// A body past the 1 MiB bound is refused before admission.
		{`{"network":"MNIST","mode":"orc","prune":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		status, body := postSimulate(t, ts.URL, c.body)
		if status != c.want {
			t.Errorf("%.80s: status %d (want %d): %.200s", c.body, status, c.want, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%.80s: reject body is not an {\"error\": ...} object: %.200s", c.body, body)
		}
	}
	// An unknown mode's 400 must name the rejected spelling so clients
	// can tell a typo from a version skew.
	if status, body := postSimulate(t, ts.URL, `{"network":"MNIST","mode":"warp-drive"}`); status != http.StatusBadRequest ||
		!strings.Contains(string(body), "warp-drive") {
		t.Errorf("unknown-mode reject does not name the mode: status %d body %s", status, body)
	}
	// None of the rejects may have built anything.
	if got := srv.Registry().Builds(); got != 0 {
		t.Fatalf("Builds() = %d after validation rejects, want 0", got)
	}
}

func TestDeadlineExceededDoesNotPoison(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 1ms is far below CIFAR-10's build cost: the request must time out.
	status, body := postSimulate(t, ts.URL,
		`{"network":"CIFAR-10","mode":"orc+dof","config":{"max_windows":4},"timeout_ms":1}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %s", status, body)
	}

	// The same key must now succeed with a sane deadline — the timed-out
	// request neither cached a failure nor wedged the entry.
	status, body = postSimulate(t, ts.URL,
		`{"network":"CIFAR-10","mode":"orc+dof","config":{"max_windows":4},"timeout_ms":60000}`)
	if status != http.StatusOK {
		t.Fatalf("follow-up status %d (want 200): %s", status, body)
	}
	resp := decodeSimulate(t, body)
	if len(resp.Results) != 1 || resp.Results[0].Mode != sre.ORCDOF {
		t.Fatalf("follow-up results = %+v", resp.Results)
	}
	// The abandoned request's build completed and was reused.
	if got := srv.Registry().Builds(); got != 1 {
		t.Fatalf("Builds() = %d, want 1", got)
	}
}

func TestConcurrentSameKeyBuildsOnce(t *testing.T) {
	srv := NewServer(Options{MaxQueue: 64, MaxSweeps: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	modes := sre.Modes()
	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := modes[i%len(modes)]
			status, body := postSimulate(t, ts.URL, fmt.Sprintf(
				`{"network":"MNIST","mode":%q,"config":{"max_windows":6}}`, mode))
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
			}
		}(i)
	}
	wg.Wait()
	if got := srv.Registry().Builds(); got != 1 {
		t.Fatalf("Builds() = %d after %d concurrent same-key requests, want 1", got, clients)
	}

	// /v1/networks reflects the one resident design point.
	resp, err := http.Get(ts.URL + "/v1/networks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nets NetworksResponse
	if err := json.NewDecoder(resp.Body).Decode(&nets); err != nil {
		t.Fatal(err)
	}
	if nets.Builds != 1 || len(nets.Resident) != 1 {
		t.Fatalf("networks = %+v, want builds 1 / one resident key", nets)
	}
	if !strings.HasPrefix(nets.Resident[0], "MNIST/ssl/") {
		t.Fatalf("resident key = %q", nets.Resident[0])
	}
	// Every request has been answered, so the sweep slot and the pin
	// were released before the replies went out: the detail row shows
	// no pin.
	if len(nets.ResidentDetail) != 1 {
		t.Fatalf("resident_detail = %+v, want exactly the one built network", nets.ResidentDetail)
	}
	d := nets.ResidentDetail[0]
	if d.Key != nets.Resident[0] {
		t.Fatalf("detail key %q != resident key %q", d.Key, nets.Resident[0])
	}
	if d.SizeBytes <= 0 {
		t.Fatalf("resident size_bytes = %d, want > 0", d.SizeBytes)
	}
	if d.Pinned != 0 {
		t.Fatalf("resident pinned = %d, want 0 (no sweep in flight)", d.Pinned)
	}
}

// TestIdenticalRequestsShareCells: identical cold requests released
// together all miss the cache on arrival, but only those that win one
// of the MaxSweeps slots sweep; the rest find the cells cached once a
// slot frees. Every reply is bit-identical to a direct run, and every
// request adds exactly len(modes) to cache hits plus misses.
func TestIdenticalRequestsShareCells(t *testing.T) {
	srv := NewServer(Options{MaxSweeps: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	modes := []sre.Mode{sre.Baseline, sre.ORC, sre.ORCDOF}
	want := make([]sre.Result, len(modes))
	for k, m := range modes {
		want[k] = expect(t, m, sre.WithMaxWindows(6))
	}
	const clients = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			status, body := postSimulate(t, ts.URL,
				`{"network":"MNIST","modes":["baseline","orc","orc+dof"],"config":{"max_windows":6}}`)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			resp := decodeSimulate(t, body)
			if len(resp.Results) != len(modes) {
				t.Errorf("client %d: %d results, want %d", i, len(resp.Results), len(modes))
				return
			}
			for k, m := range modes {
				if !reflect.DeepEqual(resp.Results[k], want[k]) {
					t.Errorf("client %d mode %v: served result differs from direct RunContext", i, m)
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	vals := parseProm(t, promBody(t, ts.URL))
	sweeps := vals["sre_serve_sweeps_total"]
	if sweeps < 1 || sweeps > 2 {
		t.Errorf("sre_serve_sweeps_total = %v for %d identical requests under 2 slots, want 1 or 2", sweeps, clients)
	}
	hits, misses := vals["sre_serve_result_cache_hits_total"], vals["sre_serve_result_cache_misses_total"]
	if misses != sweeps*float64(len(modes)) || hits+misses != clients*float64(len(modes)) {
		t.Errorf("cache hits %v + misses %v, want misses = %v sweeps × %d modes and a sum of %d",
			hits, misses, sweeps, len(modes), clients*len(modes))
	}
}

func TestLoadBitIdenticalAndMetricsMidLoad(t *testing.T) {
	srv := NewServer(Options{MaxQueue: 64, MaxSweeps: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	modes := sre.Modes()
	want := map[sre.Mode]sre.Result{}
	for _, m := range modes {
		want[m] = expect(t, m, sre.WithMaxWindows(6))
	}

	const clients = 32
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		// Scrape /metrics continuously while the load runs; every body
		// must parse as well-formed Prometheus text.
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("mid-load /metrics: %v", err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if _, err := parsePromErr(b); err != nil {
				t.Errorf("mid-load /metrics: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := modes[i%len(modes)]
			status, body := postSimulate(t, ts.URL, fmt.Sprintf(
				`{"network":"MNIST","mode":%q,"config":{"max_windows":6}}`, mode))
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			resp := decodeSimulate(t, body)
			if len(resp.Results) != 1 {
				t.Errorf("client %d: %d results", i, len(resp.Results))
				return
			}
			if !reflect.DeepEqual(resp.Results[0], want[mode]) {
				t.Errorf("client %d mode %v: served result differs from direct RunContext", i, mode)
			}
		}(i)
	}
	wg.Wait()
	close(stopScrape)
	<-scrapeDone

	if got := srv.Registry().Builds(); got != 1 {
		t.Fatalf("Builds() = %d, want 1", got)
	}
	// The registry aggregated request-side counters under load.
	vals := parseProm(t, promBody(t, ts.URL))
	if vals["sre_serve_requests_total"] < clients {
		t.Errorf("sre_serve_requests_total = %v, want >= %d", vals["sre_serve_requests_total"], clients)
	}
}

func promBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDrainFinishesInflightThenRejects(t *testing.T) {
	srv := NewServer(Options{MaxQueue: 64, MaxSweeps: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	want := expect(t, sre.ORC, sre.WithMaxWindows(12))

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postSimulate(t, ts.URL,
				`{"network":"MNIST","mode":"orc","config":{"max_windows":12}}`)
			if status != http.StatusOK {
				t.Errorf("in-flight client %d: status %d: %s", i, status, body)
				return
			}
			resp := decodeSimulate(t, body)
			if len(resp.Results) != 1 || !reflect.DeepEqual(resp.Results[0], want) {
				t.Errorf("in-flight client %d: result differs from direct RunContext", i)
			}
		}(i)
	}

	// Wait until the burst is admitted (the cold build holds every
	// request in flight), then drain under it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.gate.Inflight() < clients && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait() // every admitted request completed with a full 200 response

	// Post-drain requests bounce with a retryable 503, not a
	// connection error.
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"network":"MNIST","mode":"orc"}`))
	if err != nil {
		t.Fatalf("post-drain POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d (want 503): %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("post-drain Retry-After = %q, want \"1\"", got)
	}
	if !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("post-drain body %s", body)
	}
}

func TestHealthz(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, b)
	}
}

// TestActSeedServedMatchesLibrary: a served act_seed request is
// bit-identical to the library's RunBatchContext over the same
// ActivationSet, act_seed 0 selecting the network's own activations,
// and the seed really changes the results.
func TestActSeedServedMatchesLibrary(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	modes := []sre.Mode{sre.DOF, sre.ORCDOF, sre.Baseline}
	var got [][]sre.Result
	for _, seed := range []uint64{0, 41, 42} {
		status, body := postSimulate(t, ts.URL, fmt.Sprintf(
			`{"network":"MNIST","modes":["dof","orc+dof","baseline"],"config":{"max_windows":6},"act_seed":%d}`,
			seed))
		if status != http.StatusOK {
			t.Fatalf("act_seed %d: status %d: %s", seed, status, body)
		}
		resp := decodeSimulate(t, body)
		grid, err := mnistDirect(t).RunBatchContext(context.Background(), modes,
			[]sre.ActivationSet{{ActSeed: seed}}, sre.WithMaxWindows(6))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Results, grid[0]) {
			t.Errorf("act_seed %d: served results differ from the library's RunBatchContext", seed)
		}
		got = append(got, resp.Results)
	}
	if reflect.DeepEqual(got[0], got[1]) || reflect.DeepEqual(got[1], got[2]) {
		t.Fatal("act_seed had no effect on the served results")
	}
}

// TestStaticModesShareSeedCells: a mode that reads no activations has
// one result-cache cell for every act_seed, so a static request at a
// new seed is a hit that equals the library's result, a DOF mode at a
// new seed still sweeps, and a fresh-seed [baseline, orc+dof] request
// adds one entry, not two.
func TestStaticModesShareSeedCells(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(modes string, seed uint64) SimulateResponse {
		t.Helper()
		status, body := postSimulate(t, ts.URL, fmt.Sprintf(
			`{"network":"MNIST","modes":[%s],"config":{"max_windows":6},"act_seed":%d}`, modes, seed))
		if status != http.StatusOK {
			t.Fatalf("modes [%s] act_seed %d: status %d: %s", modes, seed, status, body)
		}
		return decodeSimulate(t, body)
	}
	sweeps := func() float64 {
		t.Helper()
		return parseProm(t, promBody(t, ts.URL))["sre_serve_sweeps_total"]
	}

	if resp := post(`"baseline"`, 42); resp.Cached {
		t.Fatal("the first baseline request was served from an empty cache")
	}
	before := sweeps()
	resp := post(`"baseline"`, 41)
	if !resp.Cached || sweeps() != before {
		t.Errorf("baseline at act_seed 41 after 42: cached %v, sweeps %v → %v; want a hit and no sweep",
			resp.Cached, before, sweeps())
	}
	grid, err := mnistDirect(t).RunBatchContext(context.Background(), []sre.Mode{sre.Baseline},
		[]sre.ActivationSet{{ActSeed: 41}}, sre.WithMaxWindows(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Results, grid[0]) {
		t.Error("baseline served from act_seed 42's cell differs from the library's act_seed 41 result")
	}

	before = sweeps()
	if resp := post(`"orc+dof"`, 43); resp.Cached || sweeps() != before+1 {
		t.Errorf("orc+dof at a new act_seed: cached %v, sweeps %v → %v; want one sweep", resp.Cached, before, sweeps())
	}

	n := srv.cache.Len()
	if resp := post(`"baseline","orc+dof"`, 44); resp.Cached {
		t.Fatal("a fresh-seed orc+dof request was served from cache")
	}
	if got := srv.cache.Len(); got != n+1 {
		t.Errorf("a fresh-seed [baseline, orc+dof] request grew the cache from %d to %d entries, want %d", n, got, n+1)
	}
}

// failingWriter is a ResponseWriter whose body writes fail, as they do
// once a client has gone.
type failingWriter struct{ h http.Header }

func (f *failingWriter) Header() http.Header       { return f.h }
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestWriteJSONAfterFailedWrite: a reply whose write fails, as when a
// client has gone, leaves nothing behind that spoils the next reply,
// which is written in full.
func TestWriteJSONAfterFailedWrite(t *testing.T) {
	for i := 0; i < 4; i++ {
		writeJSON(&failingWriter{h: http.Header{}}, http.StatusOK, errorResponse{Error: "lost"})
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, errorResponse{Error: "kept"})
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "kept" {
			t.Fatalf("reply after a failed write: %q (%v)", rec.Body.String(), err)
		}
	}
}
