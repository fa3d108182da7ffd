package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one traced interval. Every op of the traced phase has a root span
// named "op"; spans with Parent "op" and the same Op id are its children.
// Replay children were not timed inside the op: after the load phase the
// benchmark calls each layer's public functions again, in-process, on the
// op's own inputs, and records those calls under the op they replay. Their
// start and end are when the replay ran, so a root's self time is its
// duration minus the summed durations of its replay children.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends. Root spans are not
// recorded through it on the hot path: the load generator already keeps
// every op's start and duration, and roots are built from those afterwards.
type tracer struct {
	mu    sync.Mutex
	begin time.Time
	spans []span
}

// child records a span timed inside op k (nil-safe: untraced runs pass a
// nil tracer; k < 0 marks warm-up and is dropped).
func (t *tracer) child(name string, k int64, start, end time.Time) {
	if t == nil || k < 0 {
		return
	}
	t.add(span{Name: name, Op: k, Parent: "op", Start: int64(start.Sub(t.begin)), End: int64(end.Sub(t.begin))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// replay times f as a replay child of op k and returns its duration.
func (t *tracer) replay(name string, k int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(span{Name: name, Op: k, Parent: "op", Start: int64(start.Sub(t.begin)), End: int64(end.Sub(t.begin)), Replay: true})
	return end.Sub(start)
}

// roots turns the load phase's samples into root spans.
func (t *tracer) roots(samples []sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range samples {
		t.spans = append(t.spans, span{Name: "op", Op: s.k, Start: int64(s.start.Sub(t.begin)), End: int64(s.start.Sub(t.begin) + s.dur)})
	}
}

// durationsUs returns the sorted durations, in µs, of the spans named name.
func (t *tracer) durationsUs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// writeFile writes every span as one JSON document.
func (t *tracer) writeFile(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSet collects per-layer metric values by name. A workload that does
// not exercise a layer leaves its metrics at 0.
type layerSet map[string]float64

// counters is a snapshot of cumulative layer counters; metrics over the
// traced phase are differences of two snapshots.
type counters map[string]float64

func (c counters) sub(before counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterValue reads a counter the instrumented layer registered (metric
// registration is idempotent, so asking again returns the live series).
func counterValue(reg *obs.Registry, name string) float64 {
	return float64(reg.Counter(name, "").Value())
}

// gaugeFuncValue reads a function-backed gauge, which only an export can
// sample.
func gaugeFuncValue(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0
	}
	var all map[string]any
	if err := json.Unmarshal(buf.Bytes(), &all); err != nil {
		return 0
	}
	v, _ := all[name].(float64)
	return v
}

// timeEach runs f n times and returns the sorted per-call durations in µs.
func timeEach(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range n {
		t0 := time.Now()
		f(i)
		out[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(out)
	return out
}

// loopCost runs f n times back to back and returns the mean cost of one
// call in ns and in heap allocations — for calls too short to time singly.
func loopCost(n int, f func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := range n {
		f(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
