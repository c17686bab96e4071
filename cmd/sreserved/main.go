// Command sreserved is the resident simulation service: a long-lived
// HTTP/JSON daemon that keeps built networks in memory and serves
// simulation requests against them, amortizing workload synthesis and
// the simulator's plan/slice-mask caches across every request that
// shares a design point. Each request is answered from the result
// cache or by one sweep of its own; -sweeps bounds how many run at
// once.
//
// Usage:
//
//	sreserved                                  # listen on 127.0.0.1:8344
//	sreserved -addr :9000 -sweeps 4 -workers 8
//	sreserved -metrics final.prom -metrics-format prom
//
//	curl localhost:8344/healthz
//	curl localhost:8344/v1/networks
//	curl localhost:8344/metrics
//	curl -X POST localhost:8344/v1/simulate -d '{
//	  "network": "MNIST", "modes": ["baseline", "orc+dof"],
//	  "config": {"max_windows": 12}, "timeout_ms": 5000}'
//
// SIGTERM/SIGINT triggers a graceful drain: new requests get 503,
// in-flight requests finish (up to -grace), and a final metrics
// snapshot is flushed before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sre/internal/cli"
	"sre/internal/metrics"
	"sre/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8344", "listen address")
		queue    = flag.Int("queue", 64, "max admitted (queued + running) requests")
		sweeps   = flag.Int("sweeps", 2, "max concurrent simulation sweeps")
		grace    = flag.Duration("grace", 30*time.Second, "drain grace period on SIGTERM/SIGINT")
		cacheCap = cli.AddByteSize(flag.CommandLine, "result-cache-bytes", 256<<20,
			"deterministic result cache capacity (e.g. 64MiB; 0 disables)")
		regCap = cli.AddByteSize(flag.CommandLine, "registry-bytes", 0,
			"resident-network registry capacity (e.g. 2GiB; 0 = unbounded)")
		workers   = cli.AddWorkers(flag.CommandLine)
		snapDir   = cli.AddSnapshotDir(flag.CommandLine)
		metricsFl = cli.AddMetrics(flag.CommandLine)
	)
	flag.Parse()

	resultCache := cacheCap.Int64()
	if resultCache <= 0 {
		resultCache = -1 // Options: 0 means "default", negative disables
	}
	reg := metrics.NewRegistry()
	srv := serve.NewServer(serve.Options{
		MaxQueue:         *queue,
		MaxSweeps:        *sweeps,
		Workers:          *workers,
		Metrics:          reg,
		SnapshotDir:      *snapDir,
		ResultCacheBytes: resultCache,
		RegistryBytes:    regCap.Int64(),
	})
	httpSrv := &http.Server{Handler: srv}

	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	fmt.Fprintf(os.Stderr, "sreserved: serving on http://%s (queue %d, sweeps %d)\n",
		ln.Addr(), *queue, *sweeps)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fatal(err) // listener died before any signal
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: stop admitting, finish in-flight requests,
	// close the listeners, then flush a final metrics snapshot.
	fmt.Fprintf(os.Stderr, "sreserved: draining (grace %s)...\n", *grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sreserved: drain incomplete:", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sreserved: shutdown:", err)
	}

	snap := reg.Snapshot()
	if metricsFl.Enabled() {
		fatal(metricsFl.Write(snap))
	} else {
		fmt.Fprintln(os.Stderr, "sreserved: final metrics snapshot:")
		fatal(cli.WriteSnapshot(os.Stderr, "prom", snap))
	}
	fmt.Fprintln(os.Stderr, "sreserved: drained, bye")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sreserved:", err)
		os.Exit(1)
	}
}
