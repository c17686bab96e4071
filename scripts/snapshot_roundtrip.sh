#!/bin/sh
# End-to-end check of the network-snapshot artifact format through the
# CLI: run sresim with a cold snapshot directory (builds + persists),
# run it again against the now-warm directory (loads the artifact), and
# require byte-identical simulation output — the bit-identity contract
# of DESIGN.md §6. The same cold-then-warm pair runs a WSS mode on
# slice-capped weights in a directory of its own: a loaded network's
# WSS plans come from the slice plane every artifact carries, so they
# must match the fresh build's. Also proves the artifact's bytes depend
# only on its key (a cold run at another window cap writes the same
# file), and that a second design point gets its own artifact rather
# than colliding with the first.
# Usage: snapshot_roundtrip.sh <path-to-sresim-binary>
set -eu

BIN=${1:?usage: snapshot_roundtrip.sh <sresim binary>}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

run() {
	"$BIN" -network MNIST -mode orc+dof -windows 12 -snapshot-dir "$DIR/snaps" "$@"
}

# expect_artifacts <dir> <count> <after what>
expect_artifacts() {
	COUNT=$(ls "$1"/*.sresnap | wc -l)
	if [ "$COUNT" -ne "$2" ]; then
		echo "snapshot_roundtrip: expected $2 artifact(s) after $3, found $COUNT" >&2
		exit 1
	fi
}

run >"$DIR/cold.txt"
expect_artifacts "$DIR/snaps" 1 "the cold run"

run >"$DIR/warm.txt"
if ! diff -u "$DIR/cold.txt" "$DIR/warm.txt"; then
	echo "snapshot_roundtrip: snapshot-loaded run diverged from the fresh build" >&2
	exit 1
fi

# WSS on 2-slice-capped weights, cold then warm in its own directory.
wss() {
	"$BIN" -network MNIST -mode orc+dof+wss -slicecap 2 -windows 12 -snapshot-dir "$DIR/snapswss"
}
wss >"$DIR/wss_cold.txt"
expect_artifacts "$DIR/snapswss" 1 "the cold WSS run"
wss >"$DIR/wss_warm.txt"
if ! cmp "$DIR/wss_cold.txt" "$DIR/wss_warm.txt"; then
	diff -u "$DIR/wss_cold.txt" "$DIR/wss_warm.txt" >&2 || true
	echo "snapshot_roundtrip: snapshot-loaded orc+dof+wss run diverged from the fresh build" >&2
	exit 1
fi

# The window cap is a run setting, not part of the key: a cold run at
# another cap must write the very same artifact.
"$BIN" -network MNIST -mode orc+dof -windows 48 -snapshot-dir "$DIR/snaps48" >/dev/null
if ! cmp "$DIR/snaps"/*.sresnap "$DIR/snaps48"/*.sresnap; then
	echo "snapshot_roundtrip: artifacts written at -windows 12 and 48 differ" >&2
	exit 1
fi

# A different seed is a different build point: new artifact, no collision.
run -seed 7 >/dev/null
expect_artifacts "$DIR/snaps" 2 "a second seed"

echo "snapshot_roundtrip: OK (fresh and snapshot-loaded outputs identical for orc+dof and orc+dof+wss, one artifact per key)"
