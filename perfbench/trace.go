package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op (-1 outside the measured window); Parent is the span
// that caused this one (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Work   int     `json:"work"` // calls the span covers (kernel batches); 1 otherwise
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: now, End: -1, Work: 1})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endWork(id, 1) }

// endWork closes a span that covered work calls.
func (t *tracer) endWork(id, work int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Work = work
	t.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere (the gaps
// between a run's progress callbacks).
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Work: 1})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, each closed span's self time in
// seconds per unit of work: its duration minus the part of its
// interval that its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	spans := t.snapshot()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self := (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = append(out[s.Name], self/float64(s.Work))
	}
	return out
}

// covered returns the length of the union of the spans' intervals
// clipped to [lo, hi].
func covered(spans []span, lo, hi float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, cur := 0.0, lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
