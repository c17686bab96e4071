#!/bin/sh
# SLO load benchmark for sreserved: boot the daemon with the result
# cache disabled, replay a skewed repeated-key workload with sreload,
# then repeat with the cache enabled, recording both runs into one
# BENCH_*.json-shaped record. The acceptance claim is the printed ratio:
# repeated-key p99 must improve >=10x cache-on vs cache-off, with
# sreload's built-in bit-identity check proving equal correctness.
# Usage: bench_load.sh <sreserved binary> <sreload binary> [out.json]
# Knobs (env): NETWORK REQUESTS CLIENTS KEYS SEEDS HOT MAXWIN MODES SWEEPS
set -eu

SERVED=${1:?usage: bench_load.sh <sreserved binary> <sreload binary> [out.json]}
LOAD=${2:?usage: bench_load.sh <sreserved binary> <sreload binary> [out.json]}
OUT=${3:-BENCH_PR8.json}

ADDR=127.0.0.1:18345
BASE=http://$ADDR
# VGG-16 by default: its sweeps are expensive enough (hundreds of ms)
# that the latency win of not sweeping is the dominant term, unlike
# MNIST whose sweeps take about as long as a loopback HTTP round-trip.
NETWORK=${NETWORK:-VGG-16}
REQUESTS=${REQUESTS:-400}
CLIENTS=${CLIENTS:-8}
KEYS=${KEYS:-4}
SEEDS=${SEEDS:-2}
HOT=${HOT:-0.8}
MAXWIN=${MAXWIN:-48}
MODES=${MODES:-baseline,orc+dof}
SWEEPS=${SWEEPS:-2}

run_one() { # $1 = -result-cache-bytes value, $2 = label, $3 = extra sreload flags
	"$SERVED" -addr "$ADDR" -sweeps "$SWEEPS" -result-cache-bytes "$1" 2>/dev/null &
	PID=$!
	trap 'kill "$PID" 2>/dev/null || true' EXIT
	i=0
	until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 100 ]; then
			echo "bench-load: sreserved never became healthy" >&2
			exit 1
		fi
		sleep 0.1
	done
	# shellcheck disable=SC2086
	"$LOAD" -addr "$ADDR" -network "$NETWORK" -clients "$CLIENTS" \
		-requests "$REQUESTS" -keys "$KEYS" -seeds "$SEEDS" -hot "$HOT" \
		-max-windows "$MAXWIN" -modes "$MODES" -label "$2" -out "$OUT" $3
	kill -TERM "$PID"
	wait "$PID" || true
	trap - EXIT
}

echo "bench-load: cache-off run ($REQUESTS requests, $CLIENTS clients)"
run_one 0 "cache=off" ""
echo "bench-load: cache-on run ($REQUESTS requests, $CLIENTS clients)"
run_one 256MiB "cache=on" "-append"

# Acceptance readout: p99 ratio between the two recorded runs. The
# records land cache=off first, cache=on second (run order above).
awk '/"p99-ns"/ { gsub(/,/, ""); v[n++] = $2 }
	END {
		if (n == 2 && v[1] > 0)
			printf "bench-load: repeated-key p99 cache-off/cache-on = %.1fx (want >= 10x)\n", v[0] / v[1]
	}' "$OUT"
echo "bench-load: wrote $OUT"
