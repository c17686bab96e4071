package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"sre/internal/bitset"
)

// host describes the machine a record was measured on. Two records
// are comparable only when their host blocks are equal.
type host struct {
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"bitset_kernel"`
}

func currentHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     bitset.Kernel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is what one run writes under <workdir>/records.
type record struct {
	Host           host              `json:"host"`
	Commit         string            `json:"commit"`
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Traced         bool              `json:"traced"`
	Problems       []string          `json:"problems,omitempty"`
	Result         outcome           `json:"result"`
	TracedEndToEnd map[string]metric `json:"traced_end_to_end,omitempty"`
}

func newRecord(o options, rep *report) *record {
	rec := &record{
		Host:     currentHost(),
		Commit:   sourceHash("."),
		Workload: o.workload,
		Seed:     o.seed,
		Seconds:  o.seconds.Seconds(),
		Traced:   o.trace,
		Problems: rep.problems,
		Result:   rep.outcome(o.trace),
	}
	if o.trace {
		rec.TracedEndToEnd = rep.outcome(false).Metrics
	}
	return rec
}

// sourceHash identifies the code under test. The benchmark runs in
// checkouts that are not git repositories, so the "commit" is a hash
// of every Go source and module file below root, build output excluded.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f) // a short read changes the hash, which is all it can do
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compareRecords prints two records' metrics side by side, refusing
// when they were measured on different hosts.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	var recs [2]record
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if recs[0].Host != recs[1].Host {
		return fmt.Errorf("refusing to compare records from different hosts:\n  %s: %+v\n  %s: %+v",
			oldPath, recs[0].Host, newPath, recs[1].Host)
	}
	if recs[0].Workload != recs[1].Workload || recs[0].Traced != recs[1].Traced {
		return fmt.Errorf("records measure different things: %s trace=%v vs %s trace=%v",
			recs[0].Workload, recs[0].Traced, recs[1].Workload, recs[1].Traced)
	}
	fmt.Fprintf(w, "%-40s %16s %16s %9s\n", "metric", recs[0].Commit, recs[1].Commit, "new/old")
	names := make([]string, 0, len(recs[0].Result.Metrics))
	for n := range recs[0].Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := recs[0].Result.Metrics[n], recs[1].Result.Metrics[n]
		ratio := "-"
		if a.Value != 0 {
			ratio = strconv.FormatFloat(b.Value/a.Value, 'f', 4, 64)
		}
		fmt.Fprintf(w, "%-40s %16.6g %16.6g %9s %s\n", n, a.Value, b.Value, ratio, a.Unit)
	}
	return nil
}

// procStatusKB reads one "Vm…" field of /proc/<pid>/status in KiB.
func procStatusKB(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == field {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

func procStatusMiB(pid int, field string) (float64, error) {
	kb, err := procStatusKB(pid, field)
	return float64(kb) / 1024, err
}
