package sre

import (
	"context"
	"math"
	"testing"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxWindows = 12
	return cfg
}

func TestNetworksList(t *testing.T) {
	names := Networks()
	if len(names) != 6 {
		t.Fatalf("networks: %v", names)
	}
	if names[0] != "MNIST" || names[3] != "VGG-16" {
		t.Fatalf("Table 2 order broken: %v", names)
	}
}

func TestLoadUnknownNetwork(t *testing.T) {
	if _, err := Load("nope", WithConfig(testConfig())); err == nil {
		t.Fatal("accepted unknown network")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := testConfig()
	bad.OUHeight = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero OU height")
	}
	bad = testConfig()
	bad.CellBits = 3
	if bad.Validate() == nil {
		t.Fatal("accepted non-dividing cell bits")
	}
	if _, err := Load("MNIST", WithConfig(bad)); err == nil {
		t.Fatal("Load accepted invalid config")
	}
	for _, bits := range []int{-1, 31, 64} {
		bad = testConfig()
		bad.IndexBits = bits
		if bad.Validate() == nil {
			t.Fatalf("accepted index bits %d", bits)
		}
	}
	bad = testConfig()
	bad.CrossbarSize = 1 << 30
	if bad.Validate() == nil {
		t.Fatal("accepted a 2^30 crossbar")
	}
	// Every negative window cap would mean what 0 means (every window)
	// under its own batch and cache key, so none is accepted.
	for _, mw := range []int{-1, -7} {
		bad = testConfig()
		bad.MaxWindows = mw
		if bad.Validate() == nil {
			t.Fatalf("accepted max windows %d", mw)
		}
	}
	net, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(ORCDOF); err != nil {
		t.Fatal(err)
	}
	if _, err := net.RunContext(context.Background(), ORCDOF, WithMaxWindows(-1)); err == nil {
		t.Fatal("a run accepted WithMaxWindows(-1)")
	}
}

func TestModesRoundTrip(t *testing.T) {
	if len(Modes()) != 8 {
		t.Fatal("mode list")
	}
	seen := map[string]bool{}
	for _, m := range Modes() {
		s := m.String()
		if seen[s] {
			t.Fatalf("duplicate mode name %q", s)
		}
		seen[s] = true
	}
}

// TestModesRegistryPinned pins the wire contract of the mode registry:
// the spellings and their order are API. The first six entries predate
// the registry and must never move or change spelling — /v1/simulate
// requests, snapshot benchmark JSON, and sresim -mode flags all carry
// these strings. New modes may only be appended.
func TestModesRegistryPinned(t *testing.T) {
	want := []string{
		"baseline", "naive", "recom", "orc", "dof", "orc+dof",
		"wss", "orc+dof+wss",
	}
	modes := Modes()
	if len(modes) != len(want) {
		t.Fatalf("Modes() has %d entries, want %d", len(modes), len(want))
	}
	for i, m := range modes {
		if m.String() != want[i] {
			t.Fatalf("Modes()[%d] = %q, want %q", i, m.String(), want[i])
		}
		back, err := ParseMode(want[i])
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", want[i], err)
		}
		if back != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", want[i], back, m)
		}
	}
	if _, err := ParseMode("occ+dof"); err == nil {
		t.Fatal("ParseMode accepted an unregistered spelling")
	}
}

func TestRunMNISTShape(t *testing.T) {
	net, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if net.LayerCount() != 4 {
		t.Fatalf("layer count %d", net.LayerCount())
	}
	res, err := net.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	base := res[Baseline]
	if base.Cycles <= 0 || base.Seconds <= 0 || base.Energy.Total() <= 0 {
		t.Fatal("degenerate baseline result")
	}
	if len(base.Layers) != 4 {
		t.Fatal("per-layer results missing")
	}
	// The paper's headline ordering.
	if !(res[ORCDOF].Cycles <= res[DOF].Cycles && res[DOF].Cycles < base.Cycles) {
		t.Fatal("cycle ordering violated")
	}
	if !(res[ORCDOF].Energy.Total() < base.Energy.Total()) {
		t.Fatal("SRE must save energy")
	}
	if res[ORC].CompressionRatio <= 1 {
		t.Fatalf("ORC compression ratio %v", res[ORC].CompressionRatio)
	}
	if res[ORC].IndexStorageBits <= 0 {
		t.Fatal("ORC must report index storage")
	}
	if res[Baseline].IndexStorageBits != 0 {
		t.Fatal("baseline needs no index storage")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := testConfig()
	a, err := Load("CIFAR-10", WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("CIFAR-10", WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.Run(ORCDOF)
	rb, _ := b.Run(ORCDOF)
	if ra.Cycles != rb.Cycles || ra.Energy != rb.Energy {
		t.Fatal("same seed produced different results")
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfg := testConfig()
	cfg2 := cfg
	cfg2.Seed = 99
	a, _ := Load("CIFAR-10", WithConfig(cfg))
	b, _ := Load("CIFAR-10", WithConfig(cfg2))
	ra, _ := a.Run(ORCDOF)
	rb, _ := b.Run(ORCDOF)
	if ra.Cycles == rb.Cycles {
		t.Fatal("different seeds should perturb the synthetic workload")
	}
}

func TestGSLWeakensORC(t *testing.T) {
	cfg := testConfig()
	ssl, err := Load("CIFAR-10", WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	gsl, err := Load("CIFAR-10", WithConfig(cfg), WithPrune(GSL))
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := ssl.CompressionRatio(ORC)
	rg, _ := gsl.CompressionRatio(ORC)
	if rs <= rg {
		t.Fatalf("SSL ORC ratio %v must beat GSL %v", rs, rg)
	}
}

func TestIdealBoundsORC(t *testing.T) {
	net, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	orc, _ := net.CompressionRatio(ORC)
	if ideal := net.IdealCompressionRatio(); ideal < orc {
		t.Fatalf("ideal %v below ORC %v", ideal, orc)
	}
}

func TestRunISAAC(t *testing.T) {
	net, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	with := net.RunISAAC(true)
	without := net.RunISAAC(false)
	if with.Cycles != without.Cycles {
		t.Fatal("ReCom must not change ISAAC latency")
	}
	if with.Energy.Total() > without.Energy.Total() {
		t.Fatal("ReCom must not increase ISAAC energy")
	}
}

func TestOUBaselineCostsMoreThanISAAC(t *testing.T) {
	// The un-sparse OU baseline must cost more energy than ISAAC (paper
	// §7.5: roughly 2.5x). This holds for layers that fill their
	// crossbars; MNIST's 25-row first conv does not, so use a network
	// whose tiles are mostly full.
	net, err := Build("full-tiles", "conv3x32p1-conv3x32p1-pool-10", []int{32, 16, 16},
		WithConfig(testConfig()), WithPrune(Dense), WithSparsity(0.0, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := net.Run(Baseline)
	isaac := net.RunISAAC(false)
	ratio := base.Energy.Total() / isaac.Energy.Total()
	if ratio < 1 {
		t.Fatalf("OU baseline / ISAAC energy = %v, want > 1", ratio)
	}
	if ratio > 5 {
		t.Fatalf("OU baseline / ISAAC energy = %v, implausibly high", ratio)
	}
}

func TestBuildCustomNetwork(t *testing.T) {
	cfg := testConfig()
	net, err := Build("custom", "conv3x8p1-pool-conv3x8p1-pool-32-5", []int{1, 16, 16},
		WithConfig(cfg), WithSparsity(0.6, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(ORCDOF)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := net.Run(Baseline)
	if res.Cycles >= base.Cycles {
		t.Fatal("custom sparse network saw no speedup")
	}
}

func TestBuildCustomNetworkErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := Build("bad", "bogus", []int{1, 8, 8}, WithConfig(cfg)); err == nil {
		t.Fatal("accepted bogus topology")
	}
	if _, err := Build("bad", "4", []int{1, 8}, WithConfig(cfg)); err == nil {
		t.Fatal("accepted rank-2 input shape")
	}
}

func TestCellAccuracyAPI(t *testing.T) {
	c := BaselineCell()
	if c.Bits != 2 || c.RRatio <= 1 {
		t.Fatalf("baseline cell %+v", c)
	}
	p8 := c.ReadErrorProbability(8, 1.5)
	p128 := c.ReadErrorProbability(128, 1.5)
	if !(p8 < p128) {
		t.Fatal("error probability must grow with wordlines")
	}
	i3 := c.Improved(3)
	if i3.ReadErrorProbability(128, 1.5) >= p128 {
		t.Fatal("improved cell must err less")
	}
	if math.Abs(i3.RRatio-3*c.RRatio) > 1e-12 {
		t.Fatal("Improved scaling wrong")
	}
}

func TestOUSweepViaConfig(t *testing.T) {
	// Larger OUs need fewer cycles for the dense baseline.
	var prev int64 = -1
	for _, ou := range []int{8, 16, 32} {
		net, err := Load("MNIST", WithConfig(testConfig()), WithOU(ou))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := net.Run(Baseline)
		if prev > 0 && res.Cycles > prev {
			t.Fatalf("baseline cycles rose with a larger OU at %d", ou)
		}
		prev = res.Cycles
	}
}

func TestRunOCC(t *testing.T) {
	net, err := Load("CIFAR-10", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	occ, err := net.RunOCC()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := net.Run(Baseline)
	if occ.Cycles <= 0 || occ.Cycles > base.Cycles {
		t.Fatalf("OCC cycles %d vs baseline %d", occ.Cycles, base.Cycles)
	}
	if occ.CompressionRatio < 1 {
		t.Fatalf("OCC ratio %v", occ.CompressionRatio)
	}
	if occ.IndexStorageBits <= 0 {
		t.Fatal("OCC must report output-index storage")
	}
	// CIFAR-10 has no parallel layer groups, so its layers run back to
	// back and their cycles sum to the network's.
	if len(occ.Layers) != net.LayerCount() {
		t.Fatalf("OCC reports %d layers, network has %d", len(occ.Layers), net.LayerCount())
	}
	var sum int64
	for _, l := range occ.Layers {
		sum += l.Cycles
	}
	if sum != occ.Cycles {
		t.Fatalf("OCC layer cycles sum to %d, network reports %d", sum, occ.Cycles)
	}
	// Lazy structures are cached: second run must agree.
	again, err := net.RunOCC()
	if err != nil {
		t.Fatal(err)
	}
	if again.Cycles != occ.Cycles {
		t.Fatal("RunOCC not deterministic")
	}
}
