package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestQuick runs every workload of BENCHMARK.json on MNIST for a
// second, untraced and traced, and checks that each emits exactly the
// metrics BENCHMARK.json names, with their units and finite values,
// with no failed op or check.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sreserved and runs every workload")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}

	dir := t.TempDir()
	daemon := filepath.Join(dir, "sreserved")
	build := exec.Command("go", "build", "-o", daemon, "sre/cmd/sreserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sreserved: %v\n%s", err, out)
	}

	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: time.Second, trace: traced, quick: true,
				daemon: daemon, workdir: t.TempDir()}
			rec, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rec.Problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCompareRefusesOtherHost checks that records measured on
// different hosts are never compared.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	a := record{Host: currentHost(), Workload: "sweep"}
	b := a
	b.Host.NumCPU++
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(pb, b); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compareRecords(&out, pa, pb); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Fatalf("compare across hosts: err = %v, want a refusal", err)
	}
	if err := compareRecords(&out, pa, pa); err != nil {
		t.Fatalf("compare on one host: %v", err)
	}
}
