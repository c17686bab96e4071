// Package cli is the flag wiring the sre binaries share: the
// simulation worker-pool width, the snapshot directory, and the
// run-metrics snapshot file/format pair with its writer. Extracting it
// keeps the four binaries (sresim, srebench, sreaccuracy, sreserved)
// agreeing on flag names, defaults, and help text, and keeps the
// json-vs-prom snapshot switch in one place.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sre/internal/metrics"
)

// AddWorkers registers the shared -workers flag on fs.
func AddWorkers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "simulation worker-pool width (0 = GOMAXPROCS)")
}

// AddSnapshotDir registers the shared -snapshot-dir flag on fs.
func AddSnapshotDir(fs *flag.FlagSet) *string {
	return fs.String("snapshot-dir", "",
		"consult (and populate) this directory of built-network snapshots instead of always building")
}

// ByteSize is a flag.Value holding a byte count. It parses a plain
// integer (bytes) or an integer with a binary suffix — KiB, MiB, GiB
// (or the short forms K, M, G, and B for bytes), case-insensitive —
// so capacity flags read as "-result-cache-bytes 64MiB" rather than a
// raw digit string. Negative values pass through for flags that use
// them to mean "disabled".
type ByteSize int64

// byteSuffixes in longest-match-first order; short forms follow the
// canonical binary spellings so "64M" and "64MiB" agree.
var byteSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"GIB", 1 << 30}, {"MIB", 1 << 20}, {"KIB", 1 << 10},
	{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10}, {"B", 1},
}

// ParseByteSize parses s as a byte count per the ByteSize grammar.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	num, mult := t, int64(1)
	upper := strings.ToUpper(t)
	for _, sfx := range byteSuffixes {
		if strings.HasSuffix(upper, sfx.suffix) {
			num = strings.TrimSpace(t[:len(t)-len(sfx.suffix)])
			mult = sfx.mult
			break
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 1048576, 64MiB, 2GiB)", s)
	}
	return n * mult, nil
}

func (b *ByteSize) Set(s string) error {
	n, err := ParseByteSize(s)
	if err != nil {
		return err
	}
	*b = ByteSize(n)
	return nil
}

func (b *ByteSize) String() string {
	v := int64(*b)
	switch {
	case v != 0 && v%(1<<30) == 0:
		return strconv.FormatInt(v>>30, 10) + "GiB"
	case v != 0 && v%(1<<20) == 0:
		return strconv.FormatInt(v>>20, 10) + "MiB"
	case v != 0 && v%(1<<10) == 0:
		return strconv.FormatInt(v>>10, 10) + "KiB"
	}
	return strconv.FormatInt(v, 10)
}

// Int64 returns the byte count.
func (b *ByteSize) Int64() int64 { return int64(*b) }

// AddByteSize registers a byte-size flag on fs and returns its value.
func AddByteSize(fs *flag.FlagSet, name string, def int64, usage string) *ByteSize {
	b := ByteSize(def)
	fs.Var(&b, name, usage)
	return &b
}

// MetricsFlags is the parsed -metrics/-metrics-format pair.
type MetricsFlags struct {
	Path   string
	Format string
}

// AddMetrics registers the shared -metrics and -metrics-format flags
// on fs.
func AddMetrics(fs *flag.FlagSet) *MetricsFlags {
	m := &MetricsFlags{}
	fs.StringVar(&m.Path, "metrics", "", "write a run-metrics snapshot to this file")
	fs.StringVar(&m.Format, "metrics-format", "json", "metrics snapshot format: json|prom")
	return m
}

// Enabled reports whether a snapshot file was requested.
func (m *MetricsFlags) Enabled() bool { return m.Path != "" }

// Registry returns a fresh registry when -metrics was given, nil
// otherwise (a nil registry disables collection everywhere).
func (m *MetricsFlags) Registry() *metrics.Registry {
	if !m.Enabled() {
		return nil
	}
	return metrics.NewRegistry()
}

// Write writes snap to the requested file in the requested format; it
// is a no-op when -metrics was not given.
func (m *MetricsFlags) Write(snap *metrics.Snapshot) error {
	if !m.Enabled() {
		return nil
	}
	f, err := os.Create(m.Path)
	if err != nil {
		return err
	}
	err = WriteSnapshot(f, m.Format, snap)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteSnapshot writes snap to w in the named format (json|prom).
func WriteSnapshot(w io.Writer, format string, snap *metrics.Snapshot) error {
	switch format {
	case "json":
		return snap.WriteJSON(w)
	case "prom":
		return snap.WritePrometheus(w)
	}
	return fmt.Errorf("unknown -metrics-format %q (want json or prom)", format)
}
