package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sre"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line the benchmark prints last.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The end-to-end metrics, in BENCHMARK.json order. Host time (the
// simulator's) and modeled time (the accelerator's) keep separate
// names: the model_* values are deterministic outputs of the simulated
// hardware, not timings.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"peak_rss_mb", "MiB"},
	{"model_cycles_orcdof", "cycles"},
	{"model_cycles_orcdofwss", "cycles"},
	{"model_energy_orcdof_mj", "mJ"},
	{"model_energy_orcdofwss_mj", "mJ"},
}

// modeKey spells a mode inside a metric name ("orc+dof" → "orcdof").
func modeKey(m sre.Mode) string {
	s := []byte(m.String())
	out := s[:0]
	for _, c := range s {
		if c != '+' {
			out = append(out, c)
		}
	}
	return string(out)
}

// layerIndexed lists the modes whose per-layer host time and modeled
// cycles are reported, and layerSlots how many layer indexes each
// reports (VGG-16's 16 matrix layers; a network with fewer reports 0
// for the indexes it lacks). Indexes, not names: VGG-16 names repeat.
var layerIndexed = []sre.Mode{sre.ORCDOF, sre.ORCDOFWSS}

const layerSlots = 16

func layerName(prefix string, m sre.Mode, i int) string {
	return fmt.Sprintf("%s.%s.l%02d", prefix, modeKey(m), i)
}

// layerMetric is one per-layer metric. A timed metric is the median
// self time of the spans named after it, per unit of work the span
// carries (a kernel span covers many calls); the rest are values or
// ratios the workload sets directly.
type layerMetric struct {
	name, unit string
	timed      bool
}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
func perLayer() []layerMetric {
	var out []layerMetric
	add := func(name, unit string, timed bool) { out = append(out, layerMetric{name, unit, timed}) }
	add("workload.load_s", "s", true)
	add("core.cold_sweep_s", "s", true)
	for _, m := range sre.Modes() {
		add("core.mode_ms."+modeKey(m), "ms", true)
	}
	for _, m := range layerIndexed {
		for i := 0; i < layerSlots; i++ {
			add(layerName("core.layer_ms", m, i), "ms", true)
		}
	}
	add("parallel.sweep_w1_ms", "ms", true)
	add("bitset.count_words_ns", "ns", true)
	add("bitset.count_and_planes_ns", "ns", true)
	add("bitset.build_slice_masks_ns", "ns", true)
	for _, m := range sre.Modes() {
		add("model.cycles."+modeKey(m), "cycles", false)
	}
	for _, m := range sre.Modes() {
		add("model.energy_mj."+modeKey(m), "mJ", false)
	}
	for _, m := range layerIndexed {
		for i := 0; i < layerSlots; i++ {
			add(layerName("model.layer_cycles", m, i), "cycles", false)
		}
	}
	add("snapshot.open_s", "s", true)
	add("core.own_ms", "ms", true)
	add("core.batch_ms", "ms", true)
	add("metrics.metered_batch_ms", "ms", true)
	add("metrics.scrape_ms", "ms", true)
	add("serve.handler_us", "us", true)
	add("serve.response_kb", "KiB", false)
	add("serve.cache_hit_rate", "ratio", false)
	add("serve.batch_size", "requests", false)
	add("serve.sweeps_per_req", "ratio", false)
	add("serve.latency_drift", "ratio", false)
	add("serve.rss_growth_mb", "MiB", false)
	// The p99 is reported per layer, where no bound applies: on a host
	// shared with other tenants it follows their CPU steal more than the
	// code under test, and the sweep and serve-fresh windows hold too
	// few ops to support it.
	add("client.latency_p99_ms", "ms", false)
	return out
}

var unitSeconds = map[string]float64{"s": 1, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}

// report accumulates one run's metrics, op counts and failed checks.
type report struct {
	e2e       map[string]metric
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks; any makes the run incorrect
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]float64{}}
}

func (r *report) set(name string, v float64) {
	for _, m := range endToEnd {
		if m.name == name {
			r.e2e[name] = metric{v, m.unit}
			return
		}
	}
	panic("perfbench: unknown end-to-end metric " + name)
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// subWindows is how many equal parts of the measured window, by send
// time, the latency percentiles are taken over: each is the median of
// its per-part values, so one burst of interference from outside the
// benchmark moves one part, not the result.
const subWindows = 5

// setLatencies reports the op latency percentiles and throughput of a
// measured window of the given length; sent holds each op's send time
// from the window's start. Percentiles interpolate linearly between
// order statistics.
func (r *report) setLatencies(lat, sent []time.Duration, wall time.Duration) {
	parts := make([][]float64, subWindows)
	for i, d := range lat {
		p := min(int(int64(sent[i])*subWindows/int64(wall)), subWindows-1)
		parts[p] = append(parts[p], float64(d)/1e6)
	}
	var p50, p90, p99 []float64
	for _, ms := range parts {
		if len(ms) == 0 {
			continue
		}
		sort.Float64s(ms)
		p50 = append(p50, quantile(ms, 0.50))
		p90 = append(p90, quantile(ms, 0.90))
		p99 = append(p99, quantile(ms, 0.99))
	}
	r.set("latency_p50_ms", median(p50))
	r.set("latency_p90_ms", median(p90))
	r.layers["client.latency_p99_ms"] = median(p99)
	r.set("throughput_ops_s", float64(len(lat))/wall.Seconds())
}

// setModel reports the modeled cycles and energy of the two full-engine
// modes from a result set.
func (r *report) setModel(results []sre.Result) {
	by := sre.ResultsByMode(results)
	r.set("model_cycles_orcdof", float64(by[sre.ORCDOF].Cycles))
	r.set("model_cycles_orcdofwss", float64(by[sre.ORCDOFWSS].Cycles))
	r.set("model_energy_orcdof_mj", by[sre.ORCDOF].Energy.Total()*1e3)
	r.set("model_energy_orcdofwss_mj", by[sre.ORCDOFWSS].Energy.Total()*1e3)
}

// layerMetricsFromSpans turns the traced spans into the timed
// per-layer metrics. A timed metric with no spans is 0: the run never
// made that call (a layer index the network lacks, or a daemon scrape
// on a workload without a daemon).
func (r *report) layerMetricsFromSpans(tr *tracer) {
	self := tr.selfTimes()
	for _, m := range perLayer() {
		if !m.timed {
			continue
		}
		r.layers[m.name] = median(self[m.name]) / unitSeconds[m.unit]
	}
}

// outcome renders the result line: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *report) outcome(traced bool) outcome {
	out := outcome{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	if out.Failed > 0 || out.Attempted == 0 {
		out.Correct = false
	}
	if traced {
		for _, m := range perLayer() {
			out.Metrics[m.name] = metric{finite(r.layers[m.name]), m.unit}
		}
		return out
	}
	for _, m := range endToEnd {
		v, ok := r.e2e[m.name]
		if !ok {
			v = metric{0, m.unit}
			out.Correct = false
		}
		out.Metrics[m.name] = metric{finite(v.Value), m.unit}
	}
	return out
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// quantile of an ascending slice, interpolating linearly; NaN if empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
