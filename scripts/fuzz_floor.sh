#!/bin/sh
# Runs one fuzz target and fails unless it both passes and keeps
# fuzzing: the last "execs:" count in go test's fuzz status lines must
# reach a floor. A fuzzer that stalls, for instance spending its whole
# budget minimizing one input at 0 execs/s, still passes go test; a
# floor well under a healthy run's count (a stalled 20 s FuzzDecode made
# 782 execs, a healthy one tens of thousands) turns that stall into a
# failure.
# Usage: fuzz_floor.sh <min-execs> <go test arguments...>
#   e.g. fuzz_floor.sh 5000 -run='^$' -fuzz='^FuzzDecode$' -fuzztime=20s \
#        -fuzzminimizetime=2s ./internal/snapshot
set -eu

FLOOR=${1:?usage: fuzz_floor.sh <min-execs> <go test arguments...>}
shift
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

STATUS=0
go test "$@" >"$OUT" 2>&1 || STATUS=$?
cat "$OUT"
if [ "$STATUS" -ne 0 ]; then
	echo "fuzz_floor: go test $* failed" >&2
	exit "$STATUS"
fi
EXECS=$(grep -o 'execs: [0-9]*' "$OUT" | tail -n 1 | cut -d' ' -f2)
if [ -z "$EXECS" ]; then
	echo "fuzz_floor: no fuzz status line in the output of go test $*" >&2
	exit 1
fi
if [ "$EXECS" -lt "$FLOOR" ]; then
	echo "fuzz_floor: $EXECS execs, below the floor of $FLOOR: the fuzzer stalled" >&2
	exit 1
fi
echo "fuzz_floor: $EXECS execs (floor $FLOOR)"
