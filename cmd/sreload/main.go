// Command sreload is a concurrent load client for sreserved: N
// clients replay a skewed design-point workload against a running
// server, check every response for bit-identity, and report the
// latency distribution (mean/p50/p99), throughput and result-cache hit
// rate. `make smoke` runs it against a live daemon.
//
// The workload is parameterized the way serve traffic actually skews:
//
//   - -keys N spreads requests over N design points that share one
//     resident network (they differ in the run-scoped max_windows
//     knob), so the registry builds once and the load isolates the
//     serve path rather than the builder;
//   - -hot F sends fraction F of requests to the first key (the rest
//     spread uniformly), modelling the hot-design-point skew that
//     makes a result cache pay;
//   - -seeds N draws each request's act_seed from [0, N), so the cache
//     key space is keys x seeds x mode-set;
//   - -modes lists the mode set every request asks for.
//
// Every response is checked for bit-identity: the first result body
// seen for a (key, act_seed) cell is the reference, and any later
// response for that cell that differs is a mismatch (the run fails) —
// cached and swept responses must be indistinguishable.
//
// A warmup pass (one request per cell, unmeasured, on by default)
// separates build/first-sweep cost from steady-state latency, so the
// measured phase compares "sweep every time" against "hit the cache"
// rather than "build the network".
//
// Results print as one go-test-style benchmark line:
//
//	sreload -addr 127.0.0.1:8344 -clients 8 -requests 400 \
//	  -keys 4 -hot 0.8 -seeds 2 -modes baseline,orc+dof
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type simRequest struct {
	Network string         `json:"network"`
	Prune   string         `json:"prune,omitempty"`
	Modes   []string       `json:"modes"`
	Config  map[string]int `json:"config"`
	ActSeed uint64         `json:"act_seed,omitempty"`
	Timeout int64          `json:"timeout_ms,omitempty"`
}

type simResponse struct {
	Cached  bool            `json:"cached"`
	Results json.RawMessage `json:"results"`
}

// cell is one point of the cached-result key space the load walks.
type cell struct {
	maxWindows int
	actSeed    uint64
}

// sample is one measured request.
type sample struct {
	latency time.Duration
	cached  bool
	err     bool
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8344", "sreserved address")
		network  = flag.String("network", "MNIST", "network every request targets")
		prune    = flag.String("prune", "ssl", "prune style")
		modesFl  = flag.String("modes", "baseline,orc+dof", "comma-separated mode set every request asks for")
		clients  = flag.Int("clients", 8, "concurrent client goroutines")
		requests = flag.Int("requests", 400, "total measured requests (spread across clients)")
		keys     = flag.Int("keys", 4, "distinct design points (vary run-scoped max_windows)")
		hot      = flag.Float64("hot", 0.8, "fraction of requests aimed at the first key")
		seeds    = flag.Int("seeds", 2, "act_seed values drawn per request, uniform over [0, seeds)")
		maxWin   = flag.Int("max-windows", 48, "max_windows of the first key; key i uses max-windows - 2i")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		warmup   = flag.Bool("warmup", true, "issue one unmeasured request per (key, seed) cell first")
		seed     = flag.Int64("seed", 1, "workload RNG seed (per-client streams derive from it)")
	)
	flag.Parse()

	modes := strings.Split(*modesFl, ",")
	if *keys < 1 || *clients < 1 || *requests < 1 || *seeds < 1 {
		fatal(fmt.Errorf("keys, clients, requests, seeds must all be >= 1"))
	}
	cells := make([]cell, 0, *keys**seeds)
	for k := 0; k < *keys; k++ {
		mw := *maxWin - 2*k
		if mw < 4 {
			mw = 4 + k // keep every key distinct and valid
		}
		for s := 0; s < *seeds; s++ {
			cells = append(cells, cell{maxWindows: mw, actSeed: uint64(s)})
		}
	}

	client := &http.Client{Timeout: *timeout + 5*time.Second}
	do := func(c cell) (simResponse, time.Duration, error) {
		body, _ := json.Marshal(simRequest{
			Network: *network,
			Prune:   *prune,
			Modes:   modes,
			Config:  map[string]int{"max_windows": c.maxWindows},
			ActSeed: c.actSeed,
			Timeout: timeout.Milliseconds(),
		})
		start := time.Now()
		resp, err := client.Post("http://"+*addr+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			return simResponse{}, time.Since(start), err
		}
		defer resp.Body.Close()
		var sr simResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return simResponse{}, time.Since(start), err
		}
		if resp.StatusCode != http.StatusOK {
			return sr, time.Since(start), fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return sr, time.Since(start), nil
	}

	// Bit-identity ledger: first response per cell is the reference.
	var refs sync.Map // cell -> uint64 fnv hash of the results body
	var mismatches atomic.Int64
	check := func(c cell, results json.RawMessage) {
		h := fnv.New64a()
		h.Write(results)
		sum := h.Sum64()
		if prev, loaded := refs.LoadOrStore(c, sum); loaded && prev.(uint64) != sum {
			mismatches.Add(1)
		}
	}

	if *warmup {
		fmt.Fprintf(os.Stderr, "sreload: warmup: %d cells\n", len(cells))
		for _, c := range cells {
			sr, _, err := do(c)
			if err != nil {
				fatal(fmt.Errorf("warmup %+v: %w", c, err))
			}
			check(c, sr.Results)
		}
	}

	fmt.Fprintf(os.Stderr, "sreload: measuring: %d requests, %d clients, %d keys (hot %.2f), %d seeds, modes %v\n",
		*requests, *clients, *keys, *hot, *seeds, modes)
	samples := make([]sample, *requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				k := 0
				if rng.Float64() >= *hot && *keys > 1 {
					k = 1 + rng.Intn(*keys-1)
				}
				c := cells[k**seeds+rng.Intn(*seeds)]
				sr, lat, err := do(c)
				samples[i] = sample{latency: lat, cached: sr.Cached, err: err != nil}
				if err == nil {
					check(c, sr.Results)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	lats := make([]time.Duration, 0, len(samples))
	var hits, errs int64
	for _, s := range samples {
		if s.err {
			errs++
			continue
		}
		lats = append(lats, s.latency)
		if s.cached {
			hits++
		}
	}
	if len(lats) == 0 {
		fatal(fmt.Errorf("every request failed (%d errors)", errs))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1)+0.5)] }
	var mean time.Duration
	for _, l := range lats {
		mean += l
	}
	mean /= time.Duration(len(lats))
	hitRate := float64(hits) / float64(len(lats))
	reqPerSec := float64(len(lats)) / elapsed.Seconds()

	fmt.Printf("BenchmarkServeLoad\t%d\t%.0f ns/op\t%.0f p50-ns\t%.0f p99-ns\t%.1f req/s\t%.3f hit-rate\n",
		len(lats), float64(mean.Nanoseconds()), float64(pct(0.50).Nanoseconds()), float64(pct(0.99).Nanoseconds()),
		reqPerSec, hitRate)
	if n := mismatches.Load(); n > 0 {
		fatal(fmt.Errorf("%d bit-identity mismatches: cached responses differ from swept ones", n))
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "sreload: %d requests failed\n", errs)
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sreload:", err)
		os.Exit(1)
	}
}
