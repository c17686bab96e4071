package sre

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSerialParallelBitIdentical is the tentpole's determinism
// guarantee: sharding the simulation over any worker-pool width must
// produce bit-identical cycles and energy in every mode.
func TestSerialParallelBitIdentical(t *testing.T) {
	net, err := Build("det", "conv3x8p1-pool-conv3x8p1-pool-32-5", []int{1, 16, 16},
		smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range Modes() {
		serial, err := net.RunContext(ctx, mode, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s serial: %v", mode, err)
		}
		for _, w := range []int{2, 8} {
			par, err := net.RunContext(ctx, mode, WithWorkers(w))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mode, w, err)
			}
			if par.Cycles != serial.Cycles {
				t.Errorf("%s workers=%d cycles %d != serial %d", mode, w, par.Cycles, serial.Cycles)
			}
			if par.Energy != serial.Energy {
				t.Errorf("%s workers=%d energy %+v != serial %+v", mode, w, par.Energy, serial.Energy)
			}
		}
	}
}

// smallOpts bundles the small-network options the parallel tests share.
func smallOpts() []Option {
	return []Option{WithPrune(SSL), WithSparsity(0.6, 0.4), WithMaxWindows(12)}
}

func TestRunContextCancelled(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := net.RunContext(ctx, ORCDOF); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := net.RunAllContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllContext err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	// All windows, no sampling cap: big enough that cancellation lands
	// mid-simulation, small enough to stay fast when it does.
	net, err := Load("CIFAR-10", WithPrune(SSL), WithMaxWindows(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = net.RunAllContext(ctx)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation not observed promptly (took %v)", elapsed)
	}
	// The run may legitimately finish before the cancel lands; only a
	// context error or success is acceptable.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunAllOrderAndResultsByMode(t *testing.T) {
	net, err := Load("MNIST", append(smallOpts(), WithWorkers(4))...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := net.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	modes := Modes()
	if len(results) != len(modes) {
		t.Fatalf("got %d results for %d modes", len(results), len(modes))
	}
	for i, m := range modes {
		if results[i].Mode != m {
			t.Fatalf("results[%d].Mode = %v, want %v", i, results[i].Mode, m)
		}
	}
	byMode := ResultsByMode(results)
	for _, m := range modes {
		one, err := net.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		if byMode[m].Cycles != one.Cycles || byMode[m].Energy != one.Energy {
			t.Fatalf("%v: RunAll result differs from Run", m)
		}
	}
}

func TestRunRejectsBuildScopedOptions(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, opt := range map[string]Option{
		"WithOU":       WithOU(32),
		"WithCrossbar": WithCrossbar(256),
		"WithCellBits": WithCellBits(4),
		"WithSeed":     WithSeed(99),
		"WithPrune":    WithPrune(GSL),
		"WithSliceCap": WithSliceCap(2),
		// Not build-scoped, but past the index encoder's 30 bits.
		"WithIndexBits(31)": WithIndexBits(31),
		"WithIndexBits(-1)": WithIndexBits(-1),
	} {
		if _, err := net.RunContext(ctx, ORC, opt); err == nil {
			t.Errorf("%s accepted at run time", name)
		}
	}
	// Run-scoped knobs must pass.
	for name, opt := range map[string]Option{
		"WithWorkers":    WithWorkers(2),
		"WithMaxWindows": WithMaxWindows(6),
		"WithIndexBits":  WithIndexBits(4),
	} {
		if _, err := net.RunContext(ctx, Baseline, opt); err != nil {
			t.Errorf("%s rejected at run time: %v", name, err)
		}
	}
}

// TestWithConfigMatchesOptions pins the options-API contract: adopting
// a whole Config via WithConfig builds the same network as spelling the
// same design point with granular options.
func TestWithConfigMatchesOptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWindows = 12
	whole, err := Load("CIFAR-10", WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	granular, err := Load("CIFAR-10", WithPrune(SSL), WithMaxWindows(12))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := whole.Run(ORCDOF)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := granular.Run(ORCDOF)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Cycles != rn.Cycles || ro.Energy != rn.Energy {
		t.Fatalf("WithConfig diverged from granular options: %d/%v vs %d/%v",
			ro.Cycles, ro.Energy, rn.Cycles, rn.Energy)
	}
}

// TestRunModesContextSubset pins the subset sweep a served request
// runs: results come back in the requested order, each bit-identical
// to the standalone run of that mode.
func TestRunModesContextSubset(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	modes := []Mode{ORCDOF, Naive, DOF}
	results, err := net.RunModesContext(context.Background(), modes, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(modes) {
		t.Fatalf("got %d results for %d modes", len(results), len(modes))
	}
	for i, m := range modes {
		if results[i].Mode != m {
			t.Fatalf("results[%d].Mode = %v, want %v", i, results[i].Mode, m)
		}
		one, err := net.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Cycles != one.Cycles || results[i].Energy != one.Energy {
			t.Fatalf("%v: RunModesContext result differs from Run", m)
		}
	}
	if _, err := net.RunModesContext(context.Background(), nil); err == nil {
		t.Fatal("accepted an empty mode set")
	}
}

func TestRunOCCUnknownStyle(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	net.style = PruneStyle(99)
	if _, err := net.RunOCC(); err == nil {
		t.Fatal("RunOCC accepted unknown prune style")
	}
}

func TestProgressCallback(t *testing.T) {
	net, err := Load("MNIST", smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var events []Progress
	_, err = net.RunContext(context.Background(), DOF, WithProgress(func(p Progress) {
		events = append(events, p)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != net.LayerCount() {
		t.Fatalf("got %d progress events for %d layers", len(events), net.LayerCount())
	}
	last := events[len(events)-1]
	if last.LayersDone != net.LayerCount() || last.LayerCount != net.LayerCount() {
		t.Fatalf("final event %+v", last)
	}
	for _, ev := range events {
		if ev.Mode != DOF || ev.Network != "MNIST" || ev.Layer.Cycles <= 0 {
			t.Fatalf("bad event %+v", ev)
		}
	}
}
