// Command sreload is the SLO load harness for sreserved: N concurrent
// clients replay a skewed design-point workload against a running
// server and report the latency distribution (p50/p90/p99/max),
// throughput, error count, and result-cache hit rate — the numbers the
// serving SLO is written in. It is how the result cache's claim
// ("repeated design-point queries are answered without sweeping") is
// proven as an end-to-end latency improvement rather than a counter.
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
// Results print as a go-test-style benchmark line and can be appended
// to a BENCH_*.json record (-out, -append), which is how
// `make bench-load` accumulates the cache-off and cache-on runs into
// one BENCH file:
//
//	sreload -addr 127.0.0.1:8344 -clients 8 -requests 400 \
//	  -keys 4 -hot 0.8 -seeds 2 -modes baseline,orc+dof \
//	  -label cache=on -out BENCH_PR8.json -append
//
// Multi-replica load: -addr accepts a comma-separated address list and
// spreads the client goroutines across the replicas round-robin — the
// aggregate-throughput shape a sharded cluster serves. With more than
// one target, -key-dim seed makes the design points differ in the
// build-scoped config seed (distinct resident networks, so ownership
// spreads over the ring) instead of the run-scoped max_windows, the
// report adds a per-replica latency breakdown, and the replicas'
// /metrics are scraped before and after the measured phase to report
// the cluster's forward rate. The bit-identity ledger is unchanged: a
// forwarded response must be byte-identical to an owned one.
//
//	sreload -addr 127.0.0.1:8344,127.0.0.1:8345 -key-dim seed \
//	  -clients 8 -requests 400 -keys 4 -hot 0.8 -seeds 2 \
//	  -label replicas=2 -out BENCH_PR9.json -append
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sre/internal/cli"
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
	BatchSize int             `json:"batch_size"`
	Cached    bool            `json:"cached"`
	Results   json.RawMessage `json:"results"`
}

// cell is one point of the cached-result key space the load walks.
// cfgSeed != 0 varies the build-scoped config seed instead of the
// run-scoped max_windows (-key-dim seed), so each key is a distinct
// resident network.
type cell struct {
	maxWindows int
	actSeed    uint64
	cfgSeed    uint64
}

// sample is one measured request.
type sample struct {
	latency time.Duration
	cached  bool
	batch   int
	replica int
	err     bool
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8344", "sreserved address(es), comma-separated for multi-replica load")
		keyDim   = flag.String("key-dim", "window", "what distinguishes design points: window (run-scoped max_windows) or seed (build-scoped config seed; spreads ownership across a cluster)")
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
		label    = flag.String("label", "", "benchmark label suffix (e.g. cache=on)")
		out      = flag.String("out", "", "write (or with -append, extend) a BENCH_*.json-shaped record here")
		appendFl = flag.Bool("append", false, "append to -out instead of overwriting")
	)
	flag.Parse()

	modes := strings.Split(*modesFl, ",")
	if *keys < 1 || *clients < 1 || *requests < 1 || *seeds < 1 {
		fatal(fmt.Errorf("keys, clients, requests, seeds must all be >= 1"))
	}
	addrs := cli.SplitAddrs(*addr)
	if len(addrs) == 0 {
		fatal(fmt.Errorf("-addr names no replica address"))
	}
	if *keyDim != "window" && *keyDim != "seed" {
		fatal(fmt.Errorf("bad -key-dim %q (want window or seed)", *keyDim))
	}
	cells := make([]cell, 0, *keys**seeds)
	for k := 0; k < *keys; k++ {
		mw := *maxWin
		var cs uint64
		if *keyDim == "seed" {
			// Build-scoped spread: key k is a distinct resident network
			// (its own registry key, hence its own ring owner).
			cs = uint64(1000 + k)
		} else {
			mw = *maxWin - 2*k
			if mw < 4 {
				mw = 4 + k // keep every key distinct and valid
			}
		}
		for s := 0; s < *seeds; s++ {
			cells = append(cells, cell{maxWindows: mw, actSeed: uint64(s), cfgSeed: cs})
		}
	}

	client := &http.Client{Timeout: *timeout + 5*time.Second}
	do := func(target int, c cell) (simResponse, time.Duration, error) {
		cfg := map[string]int{"max_windows": c.maxWindows}
		if c.cfgSeed != 0 {
			cfg["seed"] = int(c.cfgSeed)
		}
		body, _ := json.Marshal(simRequest{
			Network: *network,
			Prune:   *prune,
			Modes:   modes,
			Config:  cfg,
			ActSeed: c.actSeed,
			Timeout: timeout.Milliseconds(),
		})
		start := time.Now()
		resp, err := client.Post("http://"+addrs[target]+"/v1/simulate", "application/json", bytes.NewReader(body))
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
		for i, c := range cells {
			sr, _, err := do(i%len(addrs), c)
			if err != nil {
				fatal(fmt.Errorf("warmup %+v: %w", c, err))
			}
			check(c, sr.Results)
		}
	}

	// Forward-rate baseline: scrape each replica's forwarded counter so
	// the measured phase's delta excludes warmup hops.
	fwdBefore := scrapeForwarded(addrs)

	fmt.Fprintf(os.Stderr, "sreload: measuring: %d requests, %d clients over %d replica(s), %d keys (hot %.2f, dim %s), %d seeds, modes %v\n",
		*requests, *clients, len(addrs), *keys, *hot, *keyDim, *seeds, modes)
	samples := make([]sample, *requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Clients spread across the replicas round-robin, the way a
			// load balancer (or client-side sharding) would.
			target := w % len(addrs)
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
				sr, lat, err := do(target, c)
				samples[i] = sample{latency: lat, cached: sr.Cached, batch: sr.BatchSize, replica: target, err: err != nil}
				if err == nil {
					check(c, sr.Results)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	lats := make([]time.Duration, 0, len(samples))
	var hits, errs, batchSum int64
	for _, s := range samples {
		if s.err {
			errs++
			continue
		}
		lats = append(lats, s.latency)
		if s.cached {
			hits++
		}
		batchSum += int64(s.batch)
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

	name := "BenchmarkServeLoad"
	if *label != "" {
		name += "/" + *label
	}
	metrics := map[string]float64{
		"ns/op":      float64(mean.Nanoseconds()),
		"p50-ns":     float64(pct(0.50).Nanoseconds()),
		"p90-ns":     float64(pct(0.90).Nanoseconds()),
		"p99-ns":     float64(pct(0.99).Nanoseconds()),
		"max-ns":     float64(lats[len(lats)-1].Nanoseconds()),
		"req/s":      reqPerSec,
		"hit-rate":   hitRate,
		"mean-batch": float64(batchSum) / float64(len(lats)),
		"errors":     float64(errs),
		"mismatches": float64(mismatches.Load()),
	}
	if len(addrs) > 1 {
		// Cluster extras: the measured phase's forward rate (hops per
		// successful request, from the replicas' counters) and a
		// per-replica latency breakdown.
		metrics["forward-rate"] = (scrapeForwarded(addrs) - fwdBefore) / float64(len(lats))
		for ri, a := range addrs {
			rl := make([]time.Duration, 0, len(lats))
			for _, s := range samples {
				if !s.err && s.replica == ri {
					rl = append(rl, s.latency)
				}
			}
			if len(rl) == 0 {
				continue
			}
			sort.Slice(rl, func(i, j int) bool { return rl[i] < rl[j] })
			rp := func(p float64) time.Duration { return rl[int(p*float64(len(rl)-1)+0.5)] }
			fmt.Fprintf(os.Stderr, "sreload: replica %s: %d reqs, p50 %v, p99 %v\n",
				a, len(rl), rp(0.50), rp(0.99))
			prefix := fmt.Sprintf("r%d-", ri)
			metrics[prefix+"req"] = float64(len(rl))
			metrics[prefix+"p50-ns"] = float64(rp(0.50).Nanoseconds())
			metrics[prefix+"p99-ns"] = float64(rp(0.99).Nanoseconds())
		}
	}
	fmt.Printf("%s\t%d\t%.0f ns/op\t%.0f p50-ns\t%.0f p99-ns\t%.1f req/s\t%.3f hit-rate\n",
		name, len(lats), metrics["ns/op"], metrics["p50-ns"], metrics["p99-ns"], reqPerSec, hitRate)
	if fr, ok := metrics["forward-rate"]; ok {
		fmt.Fprintf(os.Stderr, "sreload: forward-rate %.3f hops/request across %d replicas\n", fr, len(addrs))
	}
	if n := mismatches.Load(); n > 0 {
		fatal(fmt.Errorf("%d bit-identity mismatches: cached responses differ from swept ones", n))
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "sreload: %d requests failed\n", errs)
	}

	if *out != "" {
		fatal(writeRecord(*out, *appendFl, benchmark{
			Name:       name,
			Iterations: int64(len(lats)),
			Metrics:    metrics,
		}))
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// scrapeForwarded sums sre_serve_forwarded_total across the replicas'
// /metrics endpoints (0 for replicas without the counter, e.g. a
// single-replica server, or ones that cannot be scraped).
func scrapeForwarded(addrs []string) float64 {
	var total float64
	for _, a := range addrs {
		resp, err := http.Get("http://" + a + "/metrics")
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(body), "\n") {
			if rest, ok := strings.CutPrefix(line, "sre_serve_forwarded_total "); ok {
				if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
					total += v
				}
			}
		}
	}
	return total
}

// benchmark and record are the JSON shapes of the repository's
// BENCH_*.json records, so files written here sit alongside them.
type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type record struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

// writeRecord writes (or, when append is set and the file exists,
// extends) the BENCH_*.json-shaped record at path with b. A re-run with
// the same label replaces that benchmark instead of duplicating it.
func writeRecord(path string, appendTo bool, b benchmark) error {
	rec := record{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, Pkg: "sre/cmd/sreload"}
	if appendTo {
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &rec); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	replaced := false
	for i := range rec.Benchmarks {
		if rec.Benchmarks[i].Name == b.Name {
			rec.Benchmarks[i] = b
			replaced = true
			break
		}
	}
	if !replaced {
		rec.Benchmarks = append(rec.Benchmarks, b)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sreload: recorded %s in %s\n", b.Name, path)
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sreload:", err)
		os.Exit(1)
	}
}
