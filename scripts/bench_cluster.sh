#!/bin/sh
# Multi-replica throughput benchmark for sharded sreserved: replay the
# same skewed design-point workload (PR 8's shape, with the keys spread
# over build-scoped seeds so the ring partitions them) first against a
# single replica, then against a REPLICAS-wide loopback cluster, and
# record both runs into one BENCH_*.json-shaped record. The readout is the
# aggregate-throughput ratio (cluster req/s over single-replica req/s)
# plus per-replica latency breakdown and forward rate; sreload's
# built-in bit-identity ledger proves forwarded results byte-equal
# owned ones.
#
# NOTE: the ratio only means something on a multi-core box — replicas
# are separate processes, so on a single hardware thread the cluster
# run measures context-switching plus a forwarding hop, not scale-out.
# Record the core count next to the number when quoting it.
# Usage: bench_cluster.sh <sreserved binary> <sreload binary> [out.json]
# Knobs (env): NETWORK REQUESTS CLIENTS KEYS SEEDS HOT MAXWIN MODES
#              SWEEPS REPLICAS
set -eu

SERVED=${1:?usage: bench_cluster.sh <sreserved binary> <sreload binary> [out.json]}
LOAD=${2:?usage: bench_cluster.sh <sreserved binary> <sreload binary> [out.json]}
OUT=${3:-BENCH_PR9.json}

NETWORK=${NETWORK:-VGG-16}
REQUESTS=${REQUESTS:-400}
CLIENTS=${CLIENTS:-8}
KEYS=${KEYS:-4}
SEEDS=${SEEDS:-2}
HOT=${HOT:-0.8}
MAXWIN=${MAXWIN:-48}
MODES=${MODES:-baseline,orc+dof}
SWEEPS=${SWEEPS:-2}
REPLICAS=${REPLICAS:-2}

BASE_PORT=18351
addr() { echo "127.0.0.1:$((BASE_PORT + $1))"; }

PEERS=""
i=0
while [ "$i" -lt "$REPLICAS" ]; do
	PEERS="$PEERS${PEERS:+,}$(addr $i)"
	i=$((i + 1))
done

PIDS=""
stop_all() {
	for p in $PIDS; do kill "$p" 2>/dev/null || true; done
	for p in $PIDS; do wait "$p" 2>/dev/null || true; done
	PIDS=""
}
trap stop_all EXIT

boot() { # $1 = addr, $2 = extra flags
	# shellcheck disable=SC2086
	"$SERVED" -addr "$1" -sweeps "$SWEEPS" $2 2>/dev/null &
	PIDS="$PIDS $!"
	# tries, not i: POSIX sh has no locals and the caller loops on i.
	tries=0
	until curl -sf "http://$1/healthz" >/dev/null 2>&1; do
		tries=$((tries + 1))
		if [ "$tries" -ge 100 ]; then
			echo "bench-cluster: replica $1 never became healthy" >&2
			exit 1
		fi
		sleep 0.1
	done
}

load() { # $1 = target addr list, $2 = label, $3 = extra sreload flags
	# shellcheck disable=SC2086
	"$LOAD" -addr "$1" -key-dim seed -network "$NETWORK" \
		-clients "$CLIENTS" -requests "$REQUESTS" -keys "$KEYS" \
		-seeds "$SEEDS" -hot "$HOT" -max-windows "$MAXWIN" \
		-modes "$MODES" -label "$2" -out "$OUT" $3
}

echo "bench-cluster: single-replica baseline ($REQUESTS requests, $CLIENTS clients)"
boot "$(addr 0)" ""
load "$(addr 0)" "replicas=1" ""
stop_all

echo "bench-cluster: $REPLICAS-replica cluster run ($REQUESTS requests, $CLIENTS clients)"
i=0
while [ "$i" -lt "$REPLICAS" ]; do
	boot "$(addr $i)" "-peers $PEERS"
	i=$((i + 1))
done
load "$PEERS" "replicas=$REPLICAS" "-append"
stop_all
trap - EXIT

# Acceptance readout: aggregate throughput ratio between the two
# recorded runs (replicas=1 lands first, replicas=N second).
awk -v n="$REPLICAS" '/"req\/s"/ { gsub(/,/, ""); v[c++] = $2 }
	END {
		if (c == 2 && v[0] > 0)
			printf "bench-cluster: aggregate throughput %d-replica/1-replica = %.2fx (want >= 1.5x on a multi-core box)\n", n, v[1] / v[0]
	}' "$OUT"
echo "bench-cluster: wrote $OUT"
