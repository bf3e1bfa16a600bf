package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// traceDir is where traced runs write their Chrome trace files, under
// the build directory the run script already uses.
const traceDir = ".bench_build/traces"

// span is one timed call at a layer boundary. Its layer is the part of
// Name before the first dot.
type span struct {
	Name   string
	ID     int
	Parent int
	// Job groups the spans of one job (-1: not a job's span).
	Job        int64
	Start, End time.Time
}

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing, so the untraced run pays only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	open  map[int]span
	next  int
	t0    time.Time
}

func newTracer() *tracer {
	return &tracer{open: make(map[int]span), t0: time.Now()}
}

// begin opens a span now and returns its ID (0 for a nil tracer).
func (t *tracer) begin(name string, parent int, job int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.open[id] = span{Name: name, ID: id, Parent: parent, Job: job, Start: time.Now()}
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = now
	t.spans = append(t.spans, s)
}

// add records a span from timestamps taken elsewhere (for example the
// server's own job timestamps) and returns its ID.
func (t *tracer) add(name string, parent int, job int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Job: job, Start: start, End: end})
	return id
}

// layerTime is one layer's total and self time over the run.
type layerTime struct {
	Layer string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// selfTimes computes each layer's self time: a span's duration minus the
// part of it covered by its child spans.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := make(map[string]*layerTime)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := byLayer[layer]
		if lt == nil {
			lt = &layerTime{Layer: layer}
			byLayer[layer] = lt
		}
		d := s.End.Sub(s.Start)
		lt.Spans++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	return total + curB.Sub(curA)
}

// finish writes the spans as a Chrome trace and prints the self-time
// table to stderr.
func (t *tracer) finish(workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid := s.Job
		if tid < 0 {
			tid = 0
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, workload+".json")
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %d, written to %s\n", len(t.spans), path)
	fmt.Fprintf(os.Stderr, "%-12s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(os.Stderr, "%-12s %8d %12.3f %12.3f\n", lt.Layer, lt.Spans,
			float64(lt.Total.Microseconds())/1e3, float64(lt.Self.Microseconds())/1e3)
	}
	return nil
}
