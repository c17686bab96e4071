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
	if resp.BatchSize < 1 {
		t.Fatalf("batch_size = %d", resp.BatchSize)
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
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if status, body := postSimulate(t, ts.URL, c.body); status != c.want {
			t.Errorf("%s: status %d (want %d): %s", c.body, status, c.want, body)
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
}

func TestBatchCoalescing(t *testing.T) {
	srv := NewServer(Options{BatchWindow: 150 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two same-key requests inside one window must share a sweep.
	var wg sync.WaitGroup
	sizes := make([]int, 2)
	for i, mode := range []string{"orc", "dof"} {
		wg.Add(1)
		go func(i int, mode string) {
			defer wg.Done()
			status, body := postSimulate(t, ts.URL, fmt.Sprintf(
				`{"network":"MNIST","mode":%q,"config":{"max_windows":6}}`, mode))
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
				return
			}
			sizes[i] = decodeSimulate(t, body).BatchSize
		}(i, mode)
	}
	wg.Wait()
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("batch sizes = %v, want [2 2]", sizes)
	}

	// The batcher's own counters agree: one sweep, one coalesced rider.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	vals := parseProm(t, b)
	if vals["sre_serve_sweeps_total"] != 1 {
		t.Errorf("sre_serve_sweeps_total = %v, want 1", vals["sre_serve_sweeps_total"])
	}
	if vals["sre_serve_coalesced_requests_total"] != 1 {
		t.Errorf("sre_serve_coalesced_requests_total = %v, want 1",
			vals["sre_serve_coalesced_requests_total"])
	}
	// Coalesced results are still bit-identical per requester.
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

	// Post-drain requests bounce with 503, not a connection error.
	status, body := postSimulate(t, ts.URL, `{"network":"MNIST","mode":"orc"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d (want 503): %s", status, body)
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

// TestActSeedCoalescing is the serving half of the batched
// multi-activation tentpole: requests that differ only in act_seed
// must coalesce into ONE sweep (one batched RunBatchContext under the
// hood), and each requester's results must be bit-identical to the
// same request swept alone — including the act_seed 0 requester, whose
// solo path is the historical RunModesContext sweep.
func TestActSeedCoalescing(t *testing.T) {
	reqBody := func(seed uint64) string {
		return fmt.Sprintf(
			`{"network":"MNIST","modes":["dof","orc+dof","baseline"],"config":{"max_windows":6},"act_seed":%d}`,
			seed)
	}
	seeds := []uint64{0, 41, 42}

	// Solo references: coalescing disabled, every request sweeps alone.
	solo := NewServer(Options{BatchWindow: -1})
	tsSolo := httptest.NewServer(solo)
	defer tsSolo.Close()
	want := make([]SimulateResponse, len(seeds))
	for i, s := range seeds {
		status, body := postSimulate(t, tsSolo.URL, reqBody(s))
		if status != http.StatusOK {
			t.Fatalf("solo seed %d: status %d: %s", s, status, body)
		}
		want[i] = decodeSimulate(t, body)
	}
	if reflect.DeepEqual(want[0].Results, want[1].Results) {
		t.Fatal("act_seed had no effect on solo results")
	}

	// Concurrent requests inside one window, differing only in act_seed.
	srv := NewServer(Options{BatchWindow: 200 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var wg sync.WaitGroup
	got := make([]SimulateResponse, len(seeds))
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s uint64) {
			defer wg.Done()
			status, body := postSimulate(t, ts.URL, reqBody(s))
			if status != http.StatusOK {
				t.Errorf("batched seed %d: status %d: %s", s, status, body)
				return
			}
			got[i] = decodeSimulate(t, body)
		}(i, s)
	}
	wg.Wait()
	for i, s := range seeds {
		if got[i].BatchSize != len(seeds) {
			t.Errorf("seed %d: batch_size = %d, want %d", s, got[i].BatchSize, len(seeds))
		}
		if !reflect.DeepEqual(got[i].Results, want[i].Results) {
			t.Errorf("seed %d: coalesced results differ from solo sweep", s)
		}
	}

	// The batcher agrees it ran exactly one sweep for the three.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	vals := parseProm(t, b)
	if vals["sre_serve_sweeps_total"] != 1 {
		t.Errorf("sre_serve_sweeps_total = %v, want 1", vals["sre_serve_sweeps_total"])
	}
	if vals["sre_serve_coalesced_requests_total"] != 2 {
		t.Errorf("sre_serve_coalesced_requests_total = %v, want 2",
			vals["sre_serve_coalesced_requests_total"])
	}
}
