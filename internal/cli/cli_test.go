package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	workers := AddWorkers(fs)
	m := AddMetrics(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *workers != 0 || m.Enabled() || m.Format != "json" {
		t.Fatalf("defaults: workers=%d metrics=%+v", *workers, m)
	}
	if m.Registry() != nil {
		t.Fatal("disabled metrics flags must yield a nil registry")
	}
	if err := m.Write(nil); err != nil {
		t.Fatalf("disabled Write must be a no-op: %v", err)
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"64KiB", 64 << 10, true},
		{"64kib", 64 << 10, true},
		{"256MiB", 256 << 20, true},
		{"2GiB", 2 << 30, true},
		{"2G", 2 << 30, true},
		{"512M", 512 << 20, true},
		{"7K", 7 << 10, true},
		{"128B", 128, true},
		{" 64MiB ", 64 << 20, true},
		{"-1", -1, true}, // negative passes through (flags use it as "disabled")
		{"", 0, false},
		{"MiB", 0, false},
		{"12.5MiB", 0, false},
		{"64XB", 0, false},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestByteSizeFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	b := AddByteSize(fs, "cache-bytes", 256<<20, "cache capacity")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if b.Int64() != 256<<20 {
		t.Fatalf("default = %d, want %d", b.Int64(), int64(256<<20))
	}
	if got := b.String(); got != "256MiB" {
		t.Fatalf("String() = %q, want 256MiB", got)
	}
	if err := fs.Parse([]string{"-cache-bytes", "2GiB"}); err != nil {
		t.Fatal(err)
	}
	if b.Int64() != 2<<30 {
		t.Fatalf("parsed = %d, want %d", b.Int64(), int64(2<<30))
	}
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	fs2.SetOutput(discard{})
	AddByteSize(fs2, "cache-bytes", 0, "cache capacity")
	if err := fs2.Parse([]string{"-cache-bytes", "lots"}); err == nil {
		t.Fatal("accepted a non-numeric byte size")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestMetricsWrite(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := AddMetrics(fs)
	path := filepath.Join(t.TempDir(), "snap.prom")
	if err := fs.Parse([]string{"-metrics", path, "-metrics-format", "prom"}); err != nil {
		t.Fatal(err)
	}
	reg := m.Registry()
	if reg == nil {
		t.Fatal("enabled metrics flags must yield a registry")
	}
	reg.Shard().Counter("sre_cli_test_total").Add(3)
	if err := m.Write(reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "sre_cli_test_total 3") {
		t.Fatalf("prom snapshot missing counter:\n%s", raw)
	}

	m.Format = "bogus"
	if err := m.Write(reg.Snapshot()); err == nil {
		t.Fatal("accepted unknown format")
	}
}
