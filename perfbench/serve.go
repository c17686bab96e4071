package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sre"
)

// The served request shape: two modes at a small window cap, so one
// sweep costs a few tens of milliseconds and the daemon's own
// overheads (batching, activation synthesis, metering, encoding) are a
// visible share of it.
var serveModes = []sre.Mode{sre.Baseline, sre.ORCDOF}

const (
	serveMaxWindows = 12
	// clients is the closed-loop client count: the daemon's callers
	// (sweep scripts, sreload, notebooks) each wait for their reply, and
	// the host has two CPUs.
	clients = 2
)

// hotCells are the (max_windows, act_seed) cells serve-hot draws from;
// set-up sweeps each once, so every measured request is a cache hit.
var hotCells = func() (out []cell) {
	for _, mw := range []int{12, 16} {
		for seed := uint64(2); seed <= 5; seed++ {
			out = append(out, cell{mw, seed})
		}
	}
	return out
}()

type cell struct {
	maxWindows int
	actSeed    uint64
}

// simRequest and simResponse mirror the daemon's POST /v1/simulate
// wire format.
type simRequest struct {
	Network string   `json:"network"`
	Modes   []string `json:"modes"`
	Config  struct {
		MaxWindows int `json:"max_windows"`
	} `json:"config"`
	ActSeed uint64 `json:"act_seed,omitempty"`
}

type simResponse struct {
	Network   string       `json:"network"`
	BatchSize int          `json:"batch_size"`
	Cached    bool         `json:"cached"`
	Results   []sre.Result `json:"results"`
}

func requestBody(network string, modes []sre.Mode, c cell) []byte {
	req := simRequest{Network: network, ActSeed: c.actSeed}
	for _, m := range modes {
		req.Modes = append(req.Modes, m.String())
	}
	req.Config.MaxWindows = c.maxWindows
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of strings and ints always marshals
	}
	return b
}

// seedSource hands out activation seeds never used before in the run.
// It skips 0 and 1, which select the network's own activations (1 is
// the build seed).
type seedSource struct{ next atomic.Uint64 }

func newSeedSource(seed int64) *seedSource {
	s := &seedSource{}
	s.next.Store(uint64(seed) << 24)
	return s
}

func (s *seedSource) take() uint64 {
	for {
		if v := s.next.Add(1); v > 1 {
			return v
		}
	}
}

// sample is one measured request.
type sample struct {
	op     int
	sent   time.Duration // since the window opened
	lat    time.Duration // send to last body byte
	ok     bool
	size   int
	seed   uint64
	cached bool
	batch  int
	body   []byte // serve-fresh keeps bodies for the checks after the window
}

// runServe drives a live sreserved child process with two closed-loop
// clients. serve-fresh sends a never-used activation seed with every
// request, so every request misses the result cache and the two
// clients' requests coalesce into metered two-seed sweeps; serve-hot
// draws from hotCells, warmed during set-up, so every request is a
// cache hit.
func runServe(ctx context.Context, o options, tr *tracer, rep *report, hot bool) (*probeState, error) {
	network := o.serveNet()
	snapDir := filepath.Join(o.workdir, "snapshots")
	snapPath, err := writeSnapshot(network, snapDir)
	if err != nil {
		return nil, err
	}
	seeds := newSeedSource(o.seed)

	var (
		d      *daemon
		refs   [][]byte
		setups []float64
	)
	defer func() {
		if d != nil {
			_ = d.stop() // error paths only; the success path checks stop
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
		}
		start := time.Now()
		sp := tr.begin("setup.daemon", 0, -1)
		if d, err = startDaemon(ctx, o.daemon, snapDir); err != nil {
			return nil, err
		}
		if hot {
			refs, err = warmHot(ctx, d, network)
		} else {
			err = warmFresh(ctx, d, network, seeds)
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(setups))

	before, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rssBefore, err := procStatusMiB(d.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}

	var next func(rng *rand.Rand) (body []byte, c cell, ref int)
	if hot {
		bodies := make([][]byte, len(hotCells))
		for i, c := range hotCells {
			bodies[i] = requestBody(network, serveModes, c)
		}
		next = func(rng *rand.Rand) ([]byte, cell, int) {
			i := rng.Intn(len(hotCells))
			return bodies[i], hotCells[i], i
		}
	} else {
		next = func(*rand.Rand) ([]byte, cell, int) {
			c := cell{serveMaxWindows, seeds.take()}
			return requestBody(network, serveModes, c), c, -1
		}
	}
	measure := tr.begin("workload.measure", 0, -1)
	samples, wall := drive(ctx, o, tr, measure, d.url, next, refs)
	tr.end(measure)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	hwm, err := procStatusMiB(d.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	rssAfter, err := procStatusMiB(d.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	sp := tr.begin("metrics.scrape_ms", 0, -1)
	after, err := d.scrape(ctx)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if after["sre_serve_snapshot_hits_total"] != 1 || after["sre_serve_snapshot_misses_total"] != 0 {
		rep.fail("daemon reports %v snapshot hits and %v misses, want 1 and 0",
			after["sre_serve_snapshot_hits_total"], after["sre_serve_snapshot_misses_total"])
	}

	lib, err := openSnapshot(tr, snapPath)
	if err != nil {
		return nil, err
	}
	if !hot {
		checkFresh(ctx, rep, lib, network, samples)
	}
	if err := checkModelServed(ctx, rep, d, lib, network); err != nil {
		return nil, err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	var lat, sent []time.Duration
	var kb, hits, batch float64
	for _, s := range samples {
		rep.attempted++
		if !s.ok {
			rep.failed++
			continue
		}
		lat, sent = append(lat, s.lat), append(sent, s.sent)
		kb += float64(s.size) / 1024
		batch += float64(s.batch)
		if s.cached {
			hits++
		}
	}
	rep.set("peak_rss_mb", hwm)
	rep.setLatencies(lat, sent, wall)
	if n := float64(len(lat)); n > 0 {
		rep.layers["serve.response_kb"] = kb / n
		rep.layers["serve.cache_hit_rate"] = hits / n
		rep.layers["serve.batch_size"] = batch / n
	}
	if len(samples) > 0 {
		rep.layers["serve.sweeps_per_req"] = (after["sre_serve_sweeps_total"] - before["sre_serve_sweeps_total"]) /
			float64(len(samples))
	}
	rep.layers["serve.latency_drift"] = drift(lat)
	rep.layers["serve.rss_growth_mb"] = rssAfter - rssBefore
	return &probeState{snapDir: snapDir, snapPath: snapPath}, nil
}

// drive runs the closed-loop clients for the measured window and
// returns their samples in send order. With refs (serve-hot) a body
// must equal its cell's warm-up body byte for byte; otherwise bodies
// are kept for checkFresh.
func drive(ctx context.Context, o options, tr *tracer, parent int, url string,
	next func(*rand.Rand) ([]byte, cell, int), refs [][]byte) ([]sample, time.Duration) {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []sample
		ops atomic.Int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed*clients + int64(c)))
			var (
				mine []sample
				buf  bytes.Buffer
			)
			kc, err := dial(url)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				mine = append(mine, sample{op: int(ops.Add(1) - 1)})
			}
			for kc != nil && time.Since(start) < o.seconds && ctx.Err() == nil {
				body, cl, ref := next(rng)
				s := sample{op: int(ops.Add(1) - 1), seed: cl.actSeed}
				sp := tr.begin("http.simulate", parent, s.op)
				t := time.Now()
				status, err := kc.post(body, &buf)
				s.lat = time.Since(t)
				tr.end(sp)
				s.sent = t.Sub(start)
				resp := buf.Bytes()
				s.size = len(resp)
				switch {
				case err != nil || status != http.StatusOK:
					fmt.Fprintf(os.Stderr, "perfbench: request %d: status %d, err %v\n", s.op, status, err)
				case refs != nil:
					s.ok = bytes.Equal(resp, refs[ref])
					s.cached, s.batch = true, 1 // the reference is a cached reply
				default:
					s.ok, s.body = true, bytes.Clone(resp)
				}
				mine = append(mine, s)
			}
			if kc != nil {
				kc.Close()
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(all, func(i, j int) bool { return all[i].sent < all[j].sent })
	return all, wall
}

// checkFresh validates every serve-fresh reply's shape and re-runs a
// fixed sample of them (first, middle, last) through the library.
func checkFresh(ctx context.Context, rep *report, lib *sre.Network, network string, samples []sample) {
	var okIdx []int
	results := make([][]sre.Result, len(samples))
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			continue
		}
		var resp simResponse
		if err := json.Unmarshal(s.body, &resp); err != nil || resp.Network != network ||
			len(resp.Results) != len(serveModes) {
			s.ok = false
			rep.fail("request %d: malformed reply", s.op)
			continue
		}
		for j, r := range resp.Results {
			if r.Mode != serveModes[j] {
				s.ok = false
				rep.fail("request %d: result %d is mode %v, want %v", s.op, j, r.Mode, serveModes[j])
			}
		}
		s.cached, s.batch, results[i] = resp.Cached, resp.BatchSize, resp.Results
		if s.ok {
			okIdx = append(okIdx, i)
		}
	}
	if len(okIdx) == 0 {
		return
	}
	for _, i := range []int{okIdx[0], okIdx[len(okIdx)/2], okIdx[len(okIdx)-1]} {
		s := &samples[i]
		grid, err := lib.RunBatchContext(ctx, serveModes, []sre.ActivationSet{{ActSeed: s.seed}},
			sre.WithMaxWindows(serveMaxWindows))
		if err != nil {
			s.ok = false
			rep.fail("library re-run of request %d: %v", s.op, err)
			continue
		}
		if !sameResults(results[i], grid[0]) {
			s.ok = false
			rep.fail("request %d (act_seed %d): reply differs from the library's results", s.op, s.seed)
		}
	}
}

// checkModelServed asks the daemon for the served network's modeled
// orc+dof and orc+dof+wss cycles and energy, own activations, checks
// them against the library and reports them as the model_* metrics.
func checkModelServed(ctx context.Context, rep *report, d *daemon, lib *sre.Network, network string) error {
	modes := []sre.Mode{sre.ORCDOF, sre.ORCDOFWSS}
	status, body, err := post(ctx, d.client, d.url, requestBody(network, modes, cell{serveMaxWindows, 0}))
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("model request: status %d, err %v", status, err)
	}
	var resp simResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("model request: %w", err)
	}
	want, err := lib.RunModesContext(ctx, modes, sre.WithMaxWindows(serveMaxWindows))
	if err != nil {
		return fmt.Errorf("library model run: %w", err)
	}
	if !sameResults(resp.Results, want) {
		rep.fail("daemon's %v results differ from the library's", modes)
	}
	rep.setModel(resp.Results)
	return nil
}

// sameResults compares results by their wire encoding, the sweep-wide
// metrics snapshot excluded (the daemon strips it).
func sameResults(a, b []sre.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Metrics, y.Metrics = nil, nil
		bx, err1 := json.Marshal(x)
		by, err2 := json.Marshal(y)
		if err1 != nil || err2 != nil || !bytes.Equal(bx, by) {
			return false
		}
	}
	return true
}

// writeSnapshot builds network into dir, as a previous daemon would
// have left it, and returns the snapshot file's path.
func writeSnapshot(network, dir string) (string, error) {
	if _, err := sre.Load(network, sre.WithSnapshotDir(dir)); err != nil {
		return "", fmt.Errorf("populate snapshot dir: %w", err)
	}
	runtime.GC() // the daemon, not this process, holds the network from here on
	files, err := filepath.Glob(filepath.Join(dir, "*.sresnap"))
	if err != nil || len(files) != 1 {
		return "", fmt.Errorf("snapshot dir %s holds %d snapshots, want 1", dir, len(files))
	}
	return files[0], nil
}

func openSnapshot(tr *tracer, path string) (*sre.Network, error) {
	sp := tr.begin("snapshot.open_s", 0, -1)
	net, err := sre.OpenSnapshot(path)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	return net, nil
}

// warmFresh is serve-fresh's warm-up: the registry loads the snapshot
// and two rounds of coalesced fresh-seed sweeps warm the plan caches.
func warmFresh(ctx context.Context, d *daemon, network string, seeds *seedSource) error {
	for round := 0; round < 2; round++ {
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func() {
				body := requestBody(network, serveModes, cell{serveMaxWindows, seeds.take()})
				status, _, err := post(ctx, d.client, d.url, body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d", status)
				}
				errs <- err
			}()
		}
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				return err
			}
		}
	}
	return nil
}

// warmHot sweeps every hot cell once, then fetches it again from the
// cache; that cached body is the cell's reference.
func warmHot(ctx context.Context, d *daemon, network string) ([][]byte, error) {
	refs := make([][]byte, len(hotCells))
	for i, c := range hotCells {
		body := requestBody(network, serveModes, c)
		for pass := 0; pass < 2; pass++ {
			status, resp, err := post(ctx, d.client, d.url, body)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("cell %v: status %d, err %v", c, status, err)
			}
			var r simResponse
			if err := json.Unmarshal(resp, &r); err != nil {
				return nil, fmt.Errorf("cell %v: %w", c, err)
			}
			if r.Cached != (pass == 1) {
				return nil, fmt.Errorf("cell %v: pass %d reply has cached=%v", c, pass, r.Cached)
			}
			refs[i] = resp
		}
	}
	return refs, nil
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends one set-up or check request and reads the whole reply.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// keepAlive is one measured client's keep-alive connection. A request
// is written and its reply read on the calling goroutine into a reused
// buffer, so the load generator adds neither goroutine hand-offs nor
// per-reply garbage to the two CPUs it shares with the daemon.
type keepAlive struct {
	net.Conn
	br   *bufio.Reader
	head string
	req  []byte
}

func dial(url string) (*keepAlive, error) {
	host := strings.TrimPrefix(url, "http://")
	c, err := net.Dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", host, err)
	}
	return &keepAlive{Conn: c, br: bufio.NewReaderSize(c, 64<<10),
		head: "POST /v1/simulate HTTP/1.1\r\nHost: " + host + "\r\nContent-Type: application/json\r\nContent-Length: "}, nil
}

// post sends one simulate request and reads the whole reply into buf.
func (k *keepAlive) post(body []byte, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	if err := k.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	k.req = append(k.req[:0], k.head...)
	k.req = strconv.AppendInt(k.req, int64(len(body)), 10)
	k.req = append(k.req, "\r\n\r\n"...)
	k.req = append(k.req, body...)
	if _, err := k.Write(k.req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// daemon is a running sreserved child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client  // set-up and check requests
	exited chan struct{} // closed when the daemon's stderr reaches EOF
	once   sync.Once
	err    error
}

// startDaemon starts sreserved with its default flags plus a free
// loopback address and the snapshot directory, and waits until it
// answers /healthz.
func startDaemon(ctx context.Context, bin, snapDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-snapshot-dir", snapDir)
	// The kernel kills the daemon if the thread that started it exits,
	// so a killed benchmark leaves no daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sreserved: %w", err)
	}
	d := &daemon{cmd: cmd, client: newClient(), exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on http://"); ok && len(addr) == 0 {
				addr <- strings.Fields(rest)[0]
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // keep draining past an over-long line
	}()
	deadline := time.After(60 * time.Second)
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.exited:
		_ = d.stop()
		return nil, errors.New("sreserved exited before listening")
	case <-deadline:
		_ = d.stop()
		return nil, errors.New("sreserved did not listen within 60s")
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if err != nil {
			_ = d.stop()
			return nil, err
		}
		if resp, err := d.client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-ctx.Done():
			_ = d.stop()
			return nil, ctx.Err()
		case <-deadline:
			_ = d.stop()
			return nil, errors.New("sreserved not healthy within 60s")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM, killing it if it has not exited
// within 30s, and waits for it. It is safe to call more than once.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.client.CloseIdleConnections()
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
		select {
		case <-d.exited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
			d.err = errors.New("sreserved did not drain within 30s")
		}
		if err := d.cmd.Wait(); err != nil && d.err == nil {
			d.err = fmt.Errorf("sreserved: %w", err)
		}
	})
	return d.err
}

// scrape reads the daemon's /metrics counters and gauges.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return out, nil
}
