// Command sresim simulates one network under one configuration and
// prints per-layer and total cycles, time, and energy.
//
// Usage:
//
//	sresim -network VGG-16 -mode orc+dof
//	sresim -network MNIST -mode dof -ou 32 -cellbits 4 -layers
//	sresim -network CaffeNet -prune gsl -mode orc
//	sresim -network CIFAR-10 -mode orc+dof+wss -slicecap 2
//	sresim -modes
//	sresim -network VGG-16 -mode orc+dof -workers 8 -progress
//	sresim -network VGG-16 -mode orc+dof -metrics run.json
//	sresim -network MNIST -mode dof -metrics run.prom -metrics-format prom
//	sresim -network MNIST -isaac
//
// Ctrl-C cancels a long simulation promptly (the worker pool checks the
// context between shards).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"sre"
	"sre/internal/cli"
	"sre/internal/profiling"
)

func main() {
	var (
		network   = flag.String("network", "MNIST", "network name (see -networks)")
		networks  = flag.Bool("networks", false, "list available networks")
		modeName  = flag.String("mode", "orc+dof", modeHelp())
		modes     = flag.Bool("modes", false, "list available modes")
		pruneStr  = flag.String("prune", "ssl", "ssl|gsl|dense")
		ou        = flag.Int("ou", 16, "square OU size")
		xbar      = flag.Int("crossbar", 128, "crossbar dimension")
		cellBits  = flag.Int("cellbits", 2, "bits per ReRAM cell")
		dacBits   = flag.Int("dacbits", 1, "DAC resolution bits")
		windows   = flag.Int("windows", 48, "per-layer window sampling cap (0 = all)")
		sliceCap  = flag.Int("slicecap", 0, "cap weights to n bit slices at build time (0 = off; see wss mode)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		workers   = cli.AddWorkers(flag.CommandLine)
		snapDir   = cli.AddSnapshotDir(flag.CommandLine)
		progress  = flag.Bool("progress", false, "report per-layer progress to stderr")
		layers    = flag.Bool("layers", false, "print per-layer results")
		runISAAC  = flag.Bool("isaac", false, "also run the over-idealized ISAAC model")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsFl = cli.AddMetrics(flag.CommandLine)
	)
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuProf)
	fatal(err)
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "sresim:", err)
		}
	}()

	if *networks {
		for _, n := range sre.Networks() {
			fmt.Println(n)
		}
		return
	}
	if *modes {
		for _, m := range sre.Modes() {
			fmt.Println(m)
		}
		fmt.Println("occ")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	style, err := sre.ParsePruneStyle(*pruneStr)
	fatal(err)

	loadOpts := []sre.Option{
		sre.WithPrune(style),
		sre.WithOU(*ou),
		sre.WithCrossbar(*xbar),
		sre.WithCellBits(*cellBits),
		sre.WithDACBits(*dacBits),
		sre.WithMaxWindows(*windows),
		sre.WithSliceCap(*sliceCap),
		sre.WithSeed(*seed),
		sre.WithWorkers(*workers),
	}
	if *snapDir != "" {
		loadOpts = append(loadOpts, sre.WithSnapshotDir(*snapDir))
	}
	net, err := sre.Load(*network, loadOpts...)
	fatal(err)

	var runOpts []sre.Option
	if *progress {
		runOpts = append(runOpts, sre.WithProgress(func(p sre.Progress) {
			fmt.Fprintf(os.Stderr, "  [%s] layer %d/%d done (%s, %d OU events, %d/%d windows)\n",
				p.Mode, p.LayersDone, p.LayerCount, p.Layer.Name, p.OUEvents, p.Sampled, p.Windows)
		}))
	}
	reg := metricsFl.Registry()
	if reg != nil {
		runOpts = append(runOpts, sre.WithMetrics(reg))
	}

	base, err := net.RunContext(ctx, sre.Baseline, runOpts...)
	fatal(err)
	var res sre.Result
	if strings.ToLower(*modeName) == "occ" {
		res, err = net.RunOCC(runOpts...)
	} else {
		var mode sre.Mode
		mode, err = sre.ParseMode(*modeName)
		fatal(err)
		res, err = net.RunContext(ctx, mode, runOpts...)
	}
	fatal(err)

	if reg != nil {
		fatal(metricsFl.Write(reg.Snapshot()))
	}

	fmt.Printf("network   %s (%d matrix layers, prune %s)\n", net.Name(), net.LayerCount(), *pruneStr)
	fmt.Printf("mode      %s\n", strings.ToLower(*modeName))
	fmt.Printf("cycles    %d (baseline %d, speedup %.2fx)\n",
		res.Cycles, base.Cycles, float64(base.Cycles)/float64(res.Cycles))
	fmt.Printf("time      %.4g s\n", res.Seconds)
	fmt.Printf("energy    %.4g J (%.1f%% of baseline; eDRAM %.1f%%, compute %.1f%%)\n",
		res.Energy.Total(), 100*res.Energy.Total()/base.Energy.Total(),
		100*res.Energy.EDRAM/res.Energy.Total(), 100*res.Energy.Compute/res.Energy.Total())
	fmt.Printf("compress  %.2fx weight compression, %.1f KB index storage\n",
		res.CompressionRatio, float64(res.IndexStorageBits)/8/1024)

	if *layers {
		fmt.Println("\nper-layer:")
		for _, l := range res.Layers {
			fmt.Printf("  %-40s %12d cycles  %10.3g J\n", l.Name, l.Cycles, l.Energy.Total())
		}
	}
	if *runISAAC {
		ires := net.RunISAAC(true)
		fmt.Printf("\nISAAC(+ReCom): time %.4g s, energy %.4g J — SRE/ISAAC time %.2f, energy %.2f\n",
			ires.Seconds, ires.Energy.Total(),
			res.Seconds/ires.Seconds, res.Energy.Total()/ires.Energy.Total())
	}
}

// modeHelp derives the -mode usage string from the registry, so a
// newly registered mode shows up in -help without touching this file;
// occ rides along because it runs through RunOCC, not RunContext.
func modeHelp() string {
	names := make([]string, 0, len(sre.Modes())+1)
	for _, m := range sre.Modes() {
		names = append(names, m.String())
	}
	return strings.Join(append(names, "occ"), "|")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sresim:", err)
		os.Exit(1)
	}
}
