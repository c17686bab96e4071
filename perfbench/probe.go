package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"sre"
	"sre/internal/bitset"
	"sre/internal/serve"
)

// probeState is what a workload hands the traced run's probes, so
// they reuse its network and snapshot instead of building them again.
type probeState struct {
	sweepNet  *sre.Network // the sweep workload's resident network
	sweepCold []sre.Result // its first (cold) sweep
	snapDir   string       // a snapshot directory holding the served network
	snapPath  string
}

// probeRepeats is how many times each probe repeats its timed call;
// the metric is the median.
const probeRepeats = 5

// runProbes times the calls into each layer that the per-layer metrics
// name, on the sweep network (VGG-16) and the served one (GoogLeNet),
// so a traced run of any workload reports every per-layer metric.
func runProbes(ctx context.Context, o options, tr *tracer, rep *report, ps *probeState) error {
	net, cold := ps.sweepNet, ps.sweepCold
	if net == nil {
		var err error
		if net, cold, err = loadCold(ctx, tr, o.sweepNet()); err != nil {
			return err
		}
	}
	if err := probeSweepNet(ctx, tr, rep, net, cold); err != nil {
		return err
	}
	ps.sweepNet, ps.sweepCold, net, cold = nil, nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()

	probeKernels(tr)

	if ps.snapPath == "" {
		ps.snapDir = filepath.Join(o.workdir, "snapshots")
		var err error
		if ps.snapPath, err = writeSnapshot(o.serveNet(), ps.snapDir); err != nil {
			return err
		}
	}
	return probeServeNet(ctx, o, tr, ps)
}

// probeSweepNet times single modes, serial per-layer progress and the
// serial sweep on the sweep network, and reports its model outputs.
func probeSweepNet(ctx context.Context, tr *tracer, rep *report, net *sre.Network, cold []sre.Result) error {
	for _, r := range cold {
		rep.layers["model.cycles."+modeKey(r.Mode)] = float64(r.Cycles)
		rep.layers["model.energy_mj."+modeKey(r.Mode)] = r.Energy.Total() * 1e3
	}
	for _, r := range cold {
		for _, m := range layerIndexed {
			if r.Mode != m {
				continue
			}
			for i := 0; i < layerSlots && i < len(r.Layers); i++ {
				rep.layers[layerName("model.layer_cycles", m, i)] = float64(r.Layers[i].Cycles)
			}
		}
	}

	for r := 0; r < probeRepeats; r++ {
		for _, m := range sre.Modes() {
			sp := tr.begin("core.mode_ms."+modeKey(m), 0, -1)
			_, err := net.RunContext(ctx, m)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("mode %v: %w", m, err)
			}
		}
		// With one worker the layers run in order, so the gap between
		// progress callbacks is one layer's host time.
		for _, m := range layerIndexed {
			parent := tr.begin("core.serial."+modeKey(m), 0, -1)
			last := time.Now()
			_, err := net.RunContext(ctx, m, sre.WithWorkers(1), sre.WithProgress(func(p sre.Progress) {
				now := time.Now()
				if p.LayerIndex < layerSlots {
					tr.add(layerName("core.layer_ms", m, p.LayerIndex), parent, -1, last, now)
				}
				last = now
			}))
			tr.end(parent)
			if err != nil {
				return fmt.Errorf("serial %v: %w", m, err)
			}
		}
		sp := tr.begin("parallel.sweep_w1_ms", 0, -1)
		_, err := net.RunAllContext(ctx, sre.WithWorkers(1))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("serial sweep: %w", err)
		}
	}
	return nil
}

// kernelSink keeps the kernel calls' results live.
var kernelSink int

// probeKernels times the three bitset kernels of DOF phase 1 on the
// word-plane shapes of a full crossbar tile at the design point the
// sweep network is built at (DefaultConfig): CrossbarSize wordlines,
// so Words64(CrossbarSize) words per mask; CrossbarSize/OUWidth OU
// column groups per tile; ActivationBits/DACBits input bit slices.
// Contents are drawn from a fixed seed, half of the codes zero.
func probeKernels(tr *tracer) {
	cfg := sre.DefaultConfig()
	rows := cfg.CrossbarSize
	words := bitset.Words64(rows)
	groups := cfg.CrossbarSize / cfg.OUWidth
	slices := cfg.ActivationBits / cfg.DACBits

	rng := rand.New(rand.NewSource(1))
	codes := make([]uint32, rows)
	for i := range codes {
		if rng.Intn(2) == 1 {
			codes[i] = uint32(rng.Intn(1<<cfg.ActivationBits)) >> uint(rng.Intn(cfg.ActivationBits))
		}
	}
	masks := make([][]uint64, slices)
	for s := range masks {
		masks[s] = make([]uint64, words)
	}
	plane := make([]uint64, groups*words)
	for i := range plane {
		plane[i] = rng.Uint64()
	}
	counts := make([]int, groups)
	bitset.BuildSliceMasks(codes, cfg.DACBits, masks)

	const batches, calls = 15, 1 << 14
	for b := 0; b < batches; b++ {
		sp := tr.begin("bitset.count_words_ns", 0, -1)
		for i := 0; i < calls; i++ {
			kernelSink += bitset.CountWords(masks[i%slices])
		}
		tr.endWork(sp, calls)

		sp = tr.begin("bitset.count_and_planes_ns", 0, -1)
		for i := 0; i < calls; i++ {
			bitset.CountAndPlanes(masks[i%slices], plane, counts)
		}
		tr.endWork(sp, calls)
		kernelSink += counts[0]

		sp = tr.begin("bitset.build_slice_masks_ns", 0, -1)
		for i := 0; i < calls/16; i++ {
			kernelSink += int(bitset.BuildSliceMasks(codes, cfg.DACBits, masks))
		}
		tr.endWork(sp, calls/16)
	}
}

// probeServeNet times the served network's library paths (snapshot
// open, own-activation and two-seed batch sweeps, metered and not) and
// the in-process HTTP handler on a cached request.
func probeServeNet(ctx context.Context, o options, tr *tracer, ps *probeState) error {
	var net *sre.Network
	for i := 0; i < probeRepeats; i++ {
		n, err := openSnapshot(tr, ps.snapPath)
		if err != nil {
			return err
		}
		net = n
	}
	mw := sre.WithMaxWindows(serveMaxWindows)
	seeds := newSeedSource(o.seed + 1<<20) // apart from the workload's seeds
	batch := func() []sre.ActivationSet {
		return []sre.ActivationSet{{ActSeed: seeds.take()}, {ActSeed: seeds.take()}}
	}
	// One untimed pass of each call warms the lazy plan caches, as the
	// daemon's warm-up does.
	for i := 0; i <= probeRepeats; i++ {
		name := func(n string) string {
			if i == 0 {
				return "warm." + n
			}
			return n
		}
		sp := tr.begin(name("core.own_ms"), 0, -1)
		_, err := net.RunModesContext(ctx, serveModes, mw)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("own-activation sweep: %w", err)
		}
		sp = tr.begin(name("core.batch_ms"), 0, -1)
		_, err = net.RunBatchContext(ctx, serveModes, batch(), mw)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("batch sweep: %w", err)
		}
		sp = tr.begin(name("metrics.metered_batch_ms"), 0, -1)
		_, err = net.RunBatchContext(ctx, serveModes, batch(), mw, sre.WithMetrics(sre.NewMetrics()))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("metered batch sweep: %w", err)
		}
	}

	srv := serve.NewServer(serve.Options{SnapshotDir: ps.snapDir})
	defer func() { _ = srv.Drain(ctx) }() // idle by then: drains at once
	body := string(requestBody(o.serveNet(), serveModes, cell{serveMaxWindows, 0}))
	for i := 0; i < 2+10*probeRepeats; i++ {
		sp := 0
		if i >= 2 { // the first call sweeps, the second is the first cache hit
			sp = tr.begin("serve.handler_us", 0, -1)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
		tr.end(sp)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process handler: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	return nil
}
