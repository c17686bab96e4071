package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"sre"
)

// wantModel holds each sweep network's modeled orc+dof and orc+dof+wss
// cycles and energy (mJ, to six decimals) at DefaultConfig. A speed
// change must leave them exactly as they are; only a change to the
// modeled hardware or the mapping may move them, and it updates them.
var wantModel = map[string][4]float64{
	"VGG-16": {4454968, 7900117, 56.830592, 89.230064},
	"MNIST":  {46786, 48825, 0.025770, 0.027680},
}

// runSweep is the simulator user's workload: repeated eight-mode
// sweeps (own activations, unmetered, GOMAXPROCS workers) over one
// resident network. One op is one RunAllContext.
func runSweep(ctx context.Context, o options, tr *tracer, rep *report) (*probeState, error) {
	var (
		net    *sre.Network
		first  []sre.Result
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		net, first = nil, nil // release the previous build before timing the next
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		n, res, err := loadCold(ctx, tr, o.sweepNet())
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		net, first = n, res
	}
	rep.set("setup_s", median(setups))
	want, err := digest(first)
	if err != nil {
		return nil, err
	}

	rssBefore, err := procStatusMiB(os.Getpid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	measure := tr.begin("workload.measure", 0, -1)
	var (
		lat, sent []time.Duration
		outs      [][]sre.Result
	)
	start := time.Now()
	for op := 0; time.Since(start) < o.seconds; op++ {
		sp := tr.begin("sre.RunAllContext", measure, op)
		t := time.Now()
		res, err := net.RunAllContext(ctx)
		d := time.Since(t)
		tr.end(sp)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("sweep op %d: %v", op, err)
			continue
		}
		lat, sent = append(lat, d), append(sent, t.Sub(start))
		outs = append(outs, res)
	}
	wall := time.Since(start)
	tr.end(measure)
	hwm, err := procStatusMiB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	rssAfter, err := procStatusMiB(os.Getpid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", hwm)
	rep.setLatencies(lat, sent, wall)

	// Every measured sweep must match the cold sweep and the serial
	// path bit for bit.
	for op, res := range outs {
		if got, err := digest(res); err != nil || got != want {
			rep.failed++
			rep.fail("sweep op %d: results differ from the first sweep", op)
		}
	}
	serial, err := net.RunAllContext(ctx, sre.WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("serial sweep: %w", err)
	}
	if got, err := digest(serial); err != nil || got != want {
		rep.fail("WithWorkers(1) sweep differs from the parallel sweeps")
	}
	rep.setModel(first)
	checkModel(rep, o.sweepNet())

	// The sweep has no daemon; its drift and memory growth are the
	// benchmark process's own, over the same window.
	rep.layers["serve.latency_drift"] = drift(lat)
	rep.layers["serve.rss_growth_mb"] = rssAfter - rssBefore
	return &probeState{sweepNet: net, sweepCold: first}, nil
}

// loadCold builds a network and runs its first, cold sweep: what a
// simulator user pays before the first result.
func loadCold(ctx context.Context, tr *tracer, name string) (*sre.Network, []sre.Result, error) {
	sp := tr.begin("workload.load_s", 0, -1)
	net, err := sre.Load(name)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("load %s: %w", name, err)
	}
	sp = tr.begin("core.cold_sweep_s", 0, -1)
	res, err := net.RunAllContext(ctx)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("cold sweep of %s: %w", name, err)
	}
	return net, res, nil
}

func digest(results []sre.Result) (string, error) {
	b, err := json.Marshal(results)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// checkModel compares the reported model_* values with wantModel.
func checkModel(rep *report, network string) {
	want, ok := wantModel[network]
	if !ok {
		rep.fail("no reference model values for %s", network)
		return
	}
	names := []string{"model_cycles_orcdof", "model_cycles_orcdofwss",
		"model_energy_orcdof_mj", "model_energy_orcdofwss_mj"}
	for i, n := range names {
		if got := rep.e2e[n].Value; math.Round(got*1e6) != math.Round(want[i]*1e6) {
			rep.fail("%s of %s is %.6f, want %.6f", n, network, got, want[i])
		}
	}
}

// drift is the median latency of the last fifth of ops over that of
// the first fifth, in send order: above 1 when latency grows with
// uptime.
func drift(lat []time.Duration) float64 {
	n := len(lat) / 5
	if n == 0 {
		return math.NaN()
	}
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d)
		}
		return out
	}
	return median(ms(lat[len(lat)-n:])) / median(ms(lat[:n]))
}
