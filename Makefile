# Build/verify entry points. `make verify` is the tier-1 loop with the
# race detector wired in, so the worker-pool concurrency is race-checked
# on every change.

GO ?= go

.PHONY: all build fmt-check vet test race bench-smoke smoke verify bench-quick bench-sweep bench-load bench-cluster experiments snapshot-roundtrip results profile clean

all: verify

build:
	$(GO) build ./...

# fmt-check fails when gofmt would rewrite any file, listing them.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke compiles and runs every benchmark exactly once so a broken
# benchmark can't hide.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# verify = tier-1 (build + test) plus the gofmt gate, vet, the race
# detector, and the benchmark smoke run.
verify: fmt-check vet build race bench-smoke

# smoke boots the sreserved daemon for real: health check, a simulate
# round-trip plus its cached repeat (bit-identical, no second sweep), a
# /metrics scrape, a small sreload run, then SIGTERM and a clean-drain
# exit — then repeats the exercise as a two-replica cluster
# (consistent-hash ownership, one-hop forwarding, exactly one build per
# key cluster-wide, clean drain of both replicas).
smoke:
	$(GO) build -o bin/sreserved ./cmd/sreserved
	$(GO) build -o bin/sreload ./cmd/sreload
	./scripts/smoke_sreserved.sh ./bin/sreserved ./bin/sreload
	./scripts/smoke_cluster.sh ./bin/sreserved

# bench-quick: every figure/table regeneration benchmark, one iteration.
bench-quick:
	$(GO) test -bench . -benchtime 1x -run=NONE .

# The parallel engine's acceptance benchmark: six-mode VGG-16 sweep,
# serial vs worker-pool (expect ≥3x at GOMAXPROCS≥4; identical results
# either way).
bench-sweep:
	$(GO) test -bench 'BenchmarkVGG16Sweep' -benchtime 2x -run=NONE .

# bench-load records the serving SLO numbers: sreload replays a skewed
# repeated-key workload against sreserved with the result cache off,
# then on, into $(BENCH_LOAD_OUT) — p50/p99/throughput/hit-rate per
# run, with the >=10x p99 acceptance ratio printed at the end. Knobs
# (REQUESTS, CLIENTS, KEYS, SEEDS, HOT, MAXWIN, MODES, SWEEPS) pass
# through the environment.
BENCH_LOAD_OUT ?= BENCH_PR8.json
bench-load:
	$(GO) build -o bin/sreserved ./cmd/sreserved
	$(GO) build -o bin/sreload ./cmd/sreload
	./scripts/bench_load.sh ./bin/sreserved ./bin/sreload $(BENCH_LOAD_OUT)

# bench-cluster records the sharding acceptance numbers: the PR 8
# skewed workload (keys spread over build-scoped seeds so the ring
# partitions them) against one replica, then against a REPLICAS-wide
# loopback cluster, into $(BENCH_CLUSTER_OUT) — per-run
# p50/p99/throughput/hit-rate, per-replica breakdown, forward rate, and
# the aggregate-throughput ratio printed at the end. The >=1.5x
# 2-replica target presumes a multi-core box: replicas are separate
# processes, so on one hardware thread the cluster run measures
# context-switching plus a forwarding hop, not scale-out (same caveat
# as BENCH_PR4's parallel ratios — record nproc next to the number).
# Knobs (NETWORK, REQUESTS, CLIENTS, KEYS, SEEDS, HOT, MAXWIN, MODES,
# SWEEPS, REPLICAS) pass through the environment.
BENCH_CLUSTER_OUT ?= BENCH_PR9.json
bench-cluster:
	$(GO) build -o bin/sreserved ./cmd/sreserved
	$(GO) build -o bin/sreload ./cmd/sreload
	./scripts/bench_cluster.sh ./bin/sreserved ./bin/sreload $(BENCH_CLUSTER_OUT)

# experiments records the PR 10 WSS composability table: every Table 2
# network rebuilt with a 2-slice weight cap and run under orc+dof, wss,
# and orc+dof+wss, into $(BENCH_EXP_OUT) — the orc+dof+wss rows must
# show a cycles reduction over plain orc+dof on the same capped
# weights. EXP_FLAGS=-quick trims to MNIST+CIFAR-10 (the CI leg).
BENCH_EXP_OUT ?= BENCH_PR10.json
EXP_FLAGS ?=
experiments:
	$(GO) build -o bin/srebench ./cmd/srebench
	./bin/srebench -experiment pr10-wss -json $(EXP_FLAGS) > $(BENCH_EXP_OUT)
	@echo "wrote $(BENCH_EXP_OUT)"

# snapshot-roundtrip drives the artifact format end to end through the
# CLI: build + persist, reload from the snapshot dir, diff the outputs.
snapshot-roundtrip:
	$(GO) build -o bin/sresim ./cmd/sresim
	./scripts/snapshot_roundtrip.sh ./bin/sresim

# results regenerates the full experiment record (every table/figure,
# paper order) from the current code. The output is not tracked — run
# this when EXPERIMENTS.md needs fresh numbers (~12 min on 1 CPU).
results:
	$(GO) build -o bin/srebench ./cmd/srebench
	./bin/srebench -all > results_full.txt
	@echo "wrote results_full.txt"

# profile captures CPU and heap profiles of a full-scope srebench run;
# inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) build -o bin/srebench ./cmd/srebench
	./bin/srebench -experiment fig17 -cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof <file>)"

clean:
	$(GO) clean ./...
	rm -f bin/srebench bin/sreserved bin/sreload bin/sresim cpu.pprof mem.pprof
