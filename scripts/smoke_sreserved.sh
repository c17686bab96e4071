#!/bin/sh
# End-to-end smoke test for the sreserved daemon: boot it on an
# ephemeral port, hit /healthz, run one simulation round-trip, repeat
# it to prove the result cache answers without sweeping, scrape
# /metrics, optionally drive a small sreload run, then SIGTERM it and
# require a clean graceful-drain exit.
# Usage: smoke_sreserved.sh <path-to-sreserved-binary> [path-to-sreload]
set -eu

BIN=${1:?usage: smoke_sreserved.sh <sreserved binary> [sreload binary]}
LOADBIN=${2:-}
ADDR=127.0.0.1:18344
BASE=http://$ADDR

"$BIN" -addr "$ADDR" -grace 30s &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait for the listener (the daemon builds nothing at startup, so this
# is quick — the loop just absorbs scheduler jitter).
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "smoke: sreserved never became healthy" >&2
		exit 1
	fi
	sleep 0.1
done
echo "smoke: /healthz ok"

curl -sf "$BASE/v1/networks" | grep -q '"MNIST"'
echo "smoke: /v1/networks lists MNIST"

REQ='{"network":"MNIST","modes":["baseline","orc+dof"],"config":{"max_windows":6},"timeout_ms":60000}'
OUT=$(curl -sf -X POST "$BASE/v1/simulate" -d "$REQ")
echo "$OUT" | grep -q '"Mode":"orc+dof"'
echo "$OUT" | grep -q '"Cycles"'
echo "$OUT" | grep -q '"cached":false'
echo "smoke: /v1/simulate round-trip ok"

# The identical request again: deterministic, so the result cache must
# answer it without another sweep, bit-identically.
OUT2=$(curl -sf -X POST "$BASE/v1/simulate" -d "$REQ")
echo "$OUT2" | grep -q '"cached":true'
if [ "$(echo "$OUT" | sed 's/"cached":false/"cached":true/')" != "$OUT2" ]; then
	echo "smoke: cached response differs from the swept one" >&2
	exit 1
fi
echo "smoke: repeated /v1/simulate served from the result cache, bit-identical"

METRICS=$(curl -sf "$BASE/metrics")
echo "$METRICS" | grep -q '^sre_serve_requests_total 2$'
echo "$METRICS" | grep -q '^sre_serve_sweeps_total 1$'
echo "$METRICS" | grep -q '^sre_serve_result_cache_hits_total 2$'
echo "smoke: /metrics scrape ok (1 sweep for 2 requests, 2 cache hits)"

# WSS round-trip: the version-2 wire surface. slice_cap selects its
# own resident design point and the composed mode must run and report
# fewer cycles than it would without elision (we only pin that the
# spellings serve and the version tag is 2 — numbers are the
# experiment harness's job).
WREQ='{"network":"MNIST","modes":["orc+dof","orc+dof+wss"],"config":{"max_windows":6,"slice_cap":2},"timeout_ms":60000}'
WOUT=$(curl -sf -X POST "$BASE/v1/simulate" -d "$WREQ")
echo "$WOUT" | grep -q '"Mode":"orc+dof+wss"'
echo "$WOUT" | grep -q '"Version":2'
echo "smoke: /v1/simulate wss round-trip ok (slice_cap design point, Version 2)"

# An unknown mode must be a 400 whose body names the rejected mode.
BADCODE=$(curl -s -o /tmp/smoke_badmode.$$ -w '%{http_code}' -X POST "$BASE/v1/simulate" \
	-d '{"network":"MNIST","mode":"warp-drive"}')
grep -q 'warp-drive' /tmp/smoke_badmode.$$
rm -f /tmp/smoke_badmode.$$
if [ "$BADCODE" != "400" ]; then
	echo "smoke: unknown mode returned $BADCODE (want 400)" >&2
	exit 1
fi
echo "smoke: unknown mode rejected with 400 naming the mode"

if [ -n "$LOADBIN" ]; then
	"$LOADBIN" -addr "$ADDR" -clients 4 -requests 40 -keys 2 -seeds 2 \
		-max-windows 6 -modes baseline,orc+dof -timeout 60s
	echo "smoke: sreload run ok (bit-identity checked)"
fi

kill -TERM "$PID"
WAIT_STATUS=0
wait "$PID" || WAIT_STATUS=$?
trap - EXIT
if [ "$WAIT_STATUS" -ne 0 ]; then
	echo "smoke: sreserved exited $WAIT_STATUS on SIGTERM (want 0)" >&2
	exit 1
fi
echo "smoke: SIGTERM drained cleanly"
