// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator library or a live sreserved child
// process, checks every output, and prints the metrics BENCHMARK.json
// names as the last line of standard output:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run records spans around every call it makes into a layer and
// the metrics are the per-layer ones (the traced run's own end-to-end
// numbers go to the line before). perfbench/run.sh builds this program
// and the daemon from the checkout it is run in:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//	.bench_build/perfbench --compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// quick swaps every network for MNIST so the self-test can run all
	// three workloads in seconds.
	quick   bool
	daemon  string // sreserved binary built from the tree under test
	workdir string // scratch space, records and traces, inside the checkout
}

// Networks per workload. The sweep is the simulator's heaviest Table 2
// network; the daemon serves GoogLeNet, whose 57 small layers make the
// daemon's per-layer overheads visible.
func (o options) sweepNet() string {
	if o.quick {
		return "MNIST"
	}
	return "VGG-16"
}

func (o options) serveNet() string {
	if o.quick {
		return "MNIST"
	}
	return "GoogLeNet"
}

// setupRepeats is how many times a run sets its workload up from
// scratch; setup_s is their median.
const setupRepeats = 3

var workloads = map[string]func(context.Context, options, *tracer, *report) (*probeState, error){
	"sweep": runSweep,
	"serve-fresh": func(ctx context.Context, o options, tr *tracer, r *report) (*probeState, error) {
		return runServe(ctx, o, tr, r, false)
	},
	"serve-hot": func(ctx context.Context, o options, tr *tracer, r *report) (*probeState, error) {
		return runServe(ctx, o, tr, r, true)
	},
}

func main() {
	var (
		o       options
		seconds int
		trace   int
		compare bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, serve-fresh or serve-hot")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "run every workload on MNIST (self-test)")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/sreserved", "sreserved binary")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch, record and trace directory")
	flag.BoolVar(&compare, "compare", false, "compare two record files given as arguments")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("--compare needs two record files"))
		}
		fatal(compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)))
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatal(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := run(ctx, o)
	fatal(err)
	if o.trace {
		line, err := json.Marshal(map[string]any{"traced_end_to_end": rec.TracedEndToEnd})
		fatal(err)
		fmt.Println(string(line))
	}
	line, err := json.Marshal(rec.Result)
	fatal(err)
	fmt.Println(string(line))
}

// run executes one workload and writes its record under the workdir.
func run(ctx context.Context, o options) (*record, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want sweep, serve-fresh or serve-hot)", o.workload)
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w (build it with perfbench/run.sh)", err)
	}
	workdir, err := filepath.Abs(o.workdir)
	if err != nil {
		return nil, err
	}
	o.workdir = workdir
	tmp, err := os.MkdirTemp(mkdir(o.workdir, "tmp"), o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport()
	ps, err := fn(ctx, withTmp(o, tmp), tr, rep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace {
		if err := runProbes(ctx, withTmp(o, tmp), tr, rep, ps); err != nil {
			return nil, fmt.Errorf("%s probes: %w", o.workload, err)
		}
		rep.layerMetricsFromSpans(tr)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	rec := newRecord(o, rep)
	base := fmt.Sprintf("%s-seed%d-trace0", o.workload, o.seed)
	if o.trace {
		base = fmt.Sprintf("%s-seed%d-trace1", o.workload, o.seed)
	}
	if err := writeJSON(filepath.Join(mkdir(o.workdir, "records"), base+".json"), rec); err != nil {
		return nil, err
	}
	if o.trace {
		trace := map[string]any{"host": rec.Host, "commit": rec.Commit, "workload": o.workload,
			"seed": o.seed, "spans": tr.snapshot()}
		if err := writeJSON(filepath.Join(mkdir(o.workdir, "traces"), base+".json"), trace); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// withTmp points a workload's scratch files at this run's private
// directory, which run removes when the workload ends.
func withTmp(o options, tmp string) options {
	o.workdir = tmp
	return o
}

func mkdir(parts ...string) string {
	dir := filepath.Join(parts...)
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first write
	return dir
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
