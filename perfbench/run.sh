#!/usr/bin/env bash
# Builds the benchmark and the sreserved daemon from the checkout it is
# run in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/, the Go
# build cache and the go command's own config and telemetry included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sreserved" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sreserved and perfbench/ must be here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
	cd "$root/perfbench"
	go build -o "$build/perfbench" .
	go build -o "$build/sreserved" sre/cmd/sreserved
) >&2
exec "$build/perfbench" --daemon "$build/sreserved" --workdir "$build" "$@"
