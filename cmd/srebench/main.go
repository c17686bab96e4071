// Command srebench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	srebench -experiment fig17          # one experiment
//	srebench -all                       # everything, in paper order
//	srebench -list                      # available experiment IDs
//	srebench -all -quick                # trimmed sweeps (small networks)
//	srebench -experiment fig17 -windows 96 -seed 7
//	srebench -all -workers 8            # shard simulations over 8 workers
//	srebench -experiment fig17 -metrics run.json  # run-metrics snapshot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sre/internal/cli"
	"sre/internal/experiments"
	"sre/internal/profiling"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment ID to run (see -list)")
		all        = flag.Bool("all", false, "run every experiment in paper order")
		list       = flag.Bool("list", false, "list experiment IDs")
		quick      = flag.Bool("quick", false, "trim sweeps for a fast run")
		asJSON     = flag.Bool("json", false, "emit tables as a JSON array instead of text")
		windows    = flag.Int("windows", 48, "per-layer window sampling cap (0 = all windows)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		workers    = cli.AddWorkers(flag.CommandLine)
		snapDir    = cli.AddSnapshotDir(flag.CommandLine)
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsFl  = cli.AddMetrics(flag.CommandLine)
	)
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srebench:", err)
		os.Exit(1)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "srebench:", err)
		}
	}()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	opt := experiments.Options{Seed: *seed, MaxWindows: *windows, Quick: *quick,
		Workers: *workers, SnapshotDir: *snapDir,
		Metrics: metricsFl.Registry()}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *experiment != "":
		ids = []string{*experiment}
	default:
		fmt.Fprintln(os.Stderr, "srebench: pass -experiment <id>, -all, or -list")
		os.Exit(2)
	}
	var tables []*experiments.Table
	for _, id := range ids {
		start := time.Now()
		table, err := experiments.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "srebench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *asJSON {
			tables = append(tables, table)
			fmt.Fprintf(os.Stderr, "(%s took %s)\n", id, time.Since(start).Round(time.Millisecond))
			continue
		}
		fmt.Print(table.Format())
		fmt.Printf("(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, "srebench:", err)
			os.Exit(1)
		}
	}
	if opt.Metrics != nil {
		if err := metricsFl.Write(opt.Metrics.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "srebench:", err)
			os.Exit(1)
		}
	}
}
