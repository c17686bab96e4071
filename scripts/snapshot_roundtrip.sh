#!/bin/sh
# End-to-end check of the network-snapshot artifact format through the
# CLI: run sresim with a cold snapshot directory (builds + persists),
# run it again against the now-warm directory (loads the artifact), and
# require byte-identical simulation output — the bit-identity contract
# of DESIGN.md §6. Also proves the artifact's bytes depend only on its
# key (a cold run at another window cap writes the same file), and that
# a second design point gets its own artifact rather than colliding
# with the first.
# Usage: snapshot_roundtrip.sh <path-to-sresim-binary>
set -eu

BIN=${1:?usage: snapshot_roundtrip.sh <sresim binary>}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

run() {
	"$BIN" -network MNIST -mode orc+dof -windows 12 -snapshot-dir "$DIR/snaps" "$@"
}

run >"$DIR/cold.txt"
COUNT=$(ls "$DIR/snaps"/*.sresnap | wc -l)
if [ "$COUNT" -ne 1 ]; then
	echo "snapshot_roundtrip: expected 1 artifact after the cold run, found $COUNT" >&2
	exit 1
fi

run >"$DIR/warm.txt"
if ! diff -u "$DIR/cold.txt" "$DIR/warm.txt"; then
	echo "snapshot_roundtrip: snapshot-loaded run diverged from the fresh build" >&2
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
COUNT=$(ls "$DIR/snaps"/*.sresnap | wc -l)
if [ "$COUNT" -ne 2 ]; then
	echo "snapshot_roundtrip: expected 2 artifacts after a second seed, found $COUNT" >&2
	exit 1
fi

echo "snapshot_roundtrip: OK (fresh and snapshot-loaded outputs identical, one artifact per key)"
