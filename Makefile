# Build/verify entry points. `make verify` is the tier-1 loop with the
# race detector wired in, so the worker-pool concurrency is race-checked
# on every change.

GO ?= go

.PHONY: all build fmt-check vet test race bench-smoke smoke verify bench-quick bench-sweep experiments snapshot-roundtrip results profile clean

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
# /metrics scrape, the wss and unknown-mode requests, a small sreload
# run (concurrent clients, bit-identity checked), then SIGTERM and a
# clean-drain exit.
smoke:
	$(GO) build -o bin/sreserved ./cmd/sreserved
	$(GO) build -o bin/sreload ./cmd/sreload
	./scripts/smoke_sreserved.sh ./bin/sreserved ./bin/sreload

# bench-quick: every figure/table regeneration benchmark, one iteration.
bench-quick:
	$(GO) test -bench . -benchtime 1x -run=NONE .

# The parallel engine's acceptance benchmark: six-mode VGG-16 sweep,
# serial vs worker-pool (expect ≥3x at GOMAXPROCS≥4; identical results
# either way).
bench-sweep:
	$(GO) test -bench 'BenchmarkVGG16Sweep' -benchtime 2x -run=NONE .

# experiments regenerates the WSS composability table: every Table 2
# network rebuilt with a 2-slice weight cap and run under orc+dof, wss,
# and orc+dof+wss — the orc+dof+wss rows must show a cycles reduction
# over plain orc+dof on the same capped weights. The JSON goes to
# $(BENCH_EXP_OUT), by default the untracked results_wss.json; the
# committed BENCH_PR10.json is the table's historical record and is
# never rewritten. EXP_FLAGS=-quick trims to MNIST+CIFAR-10 (the CI leg).
BENCH_EXP_OUT ?= results_wss.json
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
