package sre

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeSnapshot serializes net to a file in dir and returns the path.
func writeSnapshot(t *testing.T, dir string, net *Network) string {
	t.Helper()
	path := filepath.Join(dir, "net.sresnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameResult compares the simulation-visible surface of two results.
func sameResult(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Seconds != b.Seconds || a.Energy != b.Energy ||
		a.CompressionRatio != b.CompressionRatio || a.IndexStorageBits != b.IndexStorageBits {
		t.Fatalf("%s: results diverged:\n fresh %+v\n snap  %+v", label, a, b)
	}
	if len(a.Layers) != len(b.Layers) {
		t.Fatalf("%s: layer counts diverged", label)
	}
	for i := range a.Layers {
		if a.Layers[i] != b.Layers[i] {
			t.Fatalf("%s: layer %d diverged:\n fresh %+v\n snap  %+v",
				label, i, a.Layers[i], b.Layers[i])
		}
	}
}

// TestSnapshotGoldenAllModes is the golden bit-identity test: a
// snapshot-loaded network must produce results identical to the fresh
// build it was written from, in every mode, under both prune styles.
func TestSnapshotGoldenAllModes(t *testing.T) {
	for _, style := range []PruneStyle{SSL, GSL} {
		fresh, err := Load("MNIST", WithConfig(testConfig()), WithPrune(style))
		if err != nil {
			t.Fatal(err)
		}
		path := writeSnapshot(t, t.TempDir(), fresh)
		// MaxWindows is run-scoped (the opener's choice, not part of the
		// snapshot's build point) — pin it to the fresh network's value
		// so the runs compare window for window.
		loaded, err := OpenSnapshot(path, WithMaxWindows(testConfig().MaxWindows))
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.SnapshotLoaded() {
			t.Fatal("OpenSnapshot network does not report SnapshotLoaded")
		}
		if loaded.Name() != fresh.Name() || loaded.LayerCount() != fresh.LayerCount() {
			t.Fatalf("identity diverged: %s/%d vs %s/%d",
				loaded.Name(), loaded.LayerCount(), fresh.Name(), fresh.LayerCount())
		}
		for _, mode := range Modes() {
			want, err := fresh.Run(mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Run(mode)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, style.String()+"/"+mode.String(), want, got)
		}
		// OCC rebuilds its structures from the persisted spec — it must
		// agree too.
		wantOCC, err := fresh.RunOCC()
		if err != nil {
			t.Fatal(err)
		}
		gotOCC, err := loaded.RunOCC()
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, style.String()+"/occ", wantOCC, gotOCC)
	}
}

// TestWithSnapshotDir proves Load's snapshot-dir protocol: first call
// builds and persists (a miss), second call loads (a hit). A network
// built cold into the dir, one loaded warm from it, one from a plain
// Load and one opened from the written file hold the same state: their
// metered sweeps and OCC runs give equal results and equal metrics,
// plan-cache counters included.
func TestWithSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	cold, err := Load("MNIST", WithConfig(testConfig()), WithSnapshotDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if cold.SnapshotLoaded() {
		t.Fatal("first load reported a snapshot hit in an empty dir")
	}
	warm, err := Load("MNIST", WithConfig(testConfig()), WithSnapshotDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.SnapshotLoaded() {
		t.Fatal("second load did not hit the snapshot")
	}
	plain, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.sresnap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot dir holds %v (%v), want one file", files, err)
	}
	opened, err := OpenSnapshot(files[0], WithMaxWindows(testConfig().MaxWindows))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantSnaps := meteredRuns(t, plain)
	for name, net := range map[string]*Network{"cold": cold, "warm": warm, "opened": opened} {
		res, snaps := meteredRuns(t, net)
		for i := range wantRes {
			sameResult(t, name+"/"+wantRes[i].Mode.String(), wantRes[i], res[i])
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("%s: results differ from a plain Load's", name)
		}
		for i := range wantSnaps {
			if !reflect.DeepEqual(snaps[i], wantSnaps[i]) {
				var diff []string
				for c, v := range wantSnaps[i].Counters {
					if got := snaps[i].Counters[c]; got != v {
						diff = append(diff, fmt.Sprintf("%s %d, want %d", c, got, v))
					}
				}
				t.Fatalf("%s: metrics of run %d differ from a plain Load's (counters: %v)", name, i, diff)
			}
		}
	}
	// A different build point must not collide with the cached file.
	other, err := Load("MNIST", WithConfig(testConfig()), WithSnapshotDir(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if other.SnapshotLoaded() {
		t.Fatal("different seed hit the other seed's snapshot")
	}
}

// meteredRuns runs net's full-mode sweep and RunOCC, each metered into
// a registry of its own, and returns the results with their snapshots
// stripped, then the two snapshots less the series that record
// scheduling (sre_parallel_*, sre_core_arena_news_total).
func meteredRuns(t *testing.T, net *Network) ([]Result, []*MetricsSnapshot) {
	t.Helper()
	all, err := net.RunAllContext(context.Background(), WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	occ, err := net.RunOCC(WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*MetricsSnapshot{all[0].Metrics, occ.Metrics}
	for _, snap := range snaps {
		for _, series := range []map[string]int64{snap.Counters, snap.Gauges} {
			for name := range series {
				if strings.HasPrefix(name, "sre_parallel_") || strings.HasPrefix(name, "sre_core_arena_news_total") {
					delete(series, name)
				}
			}
		}
	}
	return zeroMetrics(append(all, occ)), snaps
}

// TestSnapshotBytesDependOnlyOnKey proves a snapshot is content
// addressed: one key written from networks loaded, run and re-written
// at different run settings (sampling cap, index width, mode) gives
// byte-identical files, through WithSnapshotDir and through WriteTo
// alike.
func TestSnapshotBytesDependOnlyOnKey(t *testing.T) {
	settings := [][]Option{
		{WithMaxWindows(12)},
		{WithMaxWindows(48), WithIndexBits(4)},
		{WithMaxWindows(0), WithIndexBits(7)},
	}
	var want []byte
	for i, opts := range settings {
		dir := t.TempDir()
		net, err := Load("MNIST", append(opts, WithSnapshotDir(dir))...)
		if err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.sresnap"))
		if err != nil || len(files) != 1 {
			t.Fatalf("settings %d: snapshot dir holds %v (%v), want one file", i, files, err)
		}
		cached, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Mode{ORC, ORCDOF} {
			if _, err := net.Run(m); err != nil {
				t.Fatal(err)
			}
		}
		written, err := os.ReadFile(writeSnapshot(t, dir, net))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = cached
		}
		if !bytes.Equal(cached, want) || !bytes.Equal(written, want) {
			t.Fatalf("settings %d: snapshot bytes differ (%d and %d B, first settings wrote %d B)",
				i, len(cached), len(written), len(want))
		}
	}
}

// TestOpenSnapshotOptionBoundary proves run-scoped options are honored
// and build-scoped options rejected, mirroring the run-option contract.
func TestOpenSnapshotOptionBoundary(t *testing.T) {
	net, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapshot(t, t.TempDir(), net)
	if _, err := OpenSnapshot(path, WithWorkers(2), WithMaxWindows(6)); err != nil {
		t.Fatalf("run-scoped options rejected: %v", err)
	}
	for name, opt := range map[string]Option{
		"seed":     WithSeed(99),
		"ou":       WithOU(32),
		"crossbar": WithCrossbar(64),
		"cellbits": WithCellBits(4),
		"prune":    WithPrune(GSL),
		"slicecap": WithSliceCap(2),
	} {
		if _, err := OpenSnapshot(path, opt); err == nil {
			t.Fatalf("build-scoped option %q accepted", name)
		}
	}
}

// TestOpenSnapshotNamedErrors proves decode failures surface as the
// package's named errors through the public entry point.
func TestOpenSnapshotNamedErrors(t *testing.T) {
	net, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapshot(t, t.TempDir(), net)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }, ErrSnapshotCorrupt},
		{"version", func(b []byte) []byte { b[8] = 42; return b }, ErrSnapshotVersion},
		{"hash", func(b []byte) []byte { b[41] ^= 0x10; return b }, ErrSnapshotHash},
	}
	for _, tc := range cases {
		bad := tc.mutate(append([]byte(nil), img...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshot(path); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
}

// TestBuildInputShapeValidation is the API-boundary table test: every
// malformed [channels, height, width] shape must be rejected with
// ErrInvalidShape before it reaches the workload builder.
func TestBuildInputShapeValidation(t *testing.T) {
	cases := []struct {
		name  string
		shape []int
		ok    bool
	}{
		{"nil", nil, false},
		{"empty", []int{}, false},
		{"too few dims", []int{3, 5}, false},
		{"too many dims", []int{3, 5, 5, 1}, false},
		{"zero dim", []int{3, 0, 0}, false},
		{"negative dim", []int{3, -5, 5}, false},
		{"valid", []int{1, 8, 8}, true},
	}
	for _, tc := range cases {
		_, err := Build("t", "conv3x2-4", tc.shape, WithConfig(testConfig()))
		if tc.ok {
			if err != nil {
				t.Fatalf("%s: rejected valid shape: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrInvalidShape) {
			t.Fatalf("%s (%v): got %v, want errors.Is(ErrInvalidShape)", tc.name, tc.shape, err)
		}
	}
}

// benchColdNet picks the paper's largest network for the cold-start
// contrast the snapshot format exists for.
const benchColdNet = "VGG-16"

// BenchmarkColdStartBuild measures Load's full build path — workload
// synthesis plus compression structures — for VGG-16.
func BenchmarkColdStartBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Load(benchColdNet); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartOpenSnapshot measures the same cold start through
// a snapshot file: one read plus zero-copy decoding.
func BenchmarkColdStartOpenSnapshot(b *testing.B) {
	net, err := Load(benchColdNet)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "vgg16.sresnap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.WriteTo(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}
