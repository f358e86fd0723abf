package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The tracer records one span around every call the benchmark makes into
// a layer. Spans are taken from the benchmark's own code only (spans
// inside the program are a later issue), stay in memory for the whole
// run and are written as Chrome-trace JSON at exit.

// spanID indexes tracer.spans; noSpan is "no parent" and what every
// method of a nil *tracer returns, so untraced runs pay one nil check.
type spanID int32

const noSpan spanID = -1

type span struct {
	Name       string
	Start, End int64 // ns since the tracer epoch; End 0 while open
	Parent     spanID
	Op         int32 // spans of one operation share it; -1 outside any op
	Lane       int32 // Chrome-trace tid: one lane per concurrent caller
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane opens a span on its own lane (one per concurrent caller); parent
// may be noSpan.
func (t *tracer) lane(name string, parent spanID, lane int) spanID {
	if t == nil {
		return noSpan
	}
	return t.push(span{Name: name, Start: t.now(), Parent: parent, Op: -1, Lane: int32(lane)}, false)
}

// begin opens a child of parent, on the parent's lane, tagged with op.
func (t *tracer) begin(name string, parent spanID, op int) spanID {
	if t == nil {
		return noSpan
	}
	return t.push(span{Name: name, Start: t.now(), Parent: parent, Op: int32(op)}, true)
}

func (t *tracer) end(id spanID) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished span whose bounds were measured elsewhere
// (e.g. the engine's own per-phase times laid out under the Step call
// that produced them).
func (t *tracer) add(name string, parent spanID, op int, start, end int64) spanID {
	if t == nil {
		return noSpan
	}
	return t.push(span{Name: name, Start: start, End: end, Parent: parent, Op: int32(op)}, true)
}

func (t *tracer) push(s span, inheritLane bool) spanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if inheritLane && s.Parent >= 0 {
		s.Lane = t.spans[s.Parent].Lane
	}
	t.spans = append(t.spans, s)
	return spanID(len(t.spans) - 1)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// bounds returns a finished span's start and end.
func (t *tracer) bounds(id spanID) (start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start, t.spans[id].End
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover (children of concurrent callers may
// overlap, so the cover is the union). By construction every span's
// children-cover plus self equals its duration: the residual is always
// reported, never dropped.
func selfTimes(spans []span) []int64 {
	kids := make([][]spanID, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], spanID(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range ks {
			lo, end := max(spans[k].Start, hi), min(spans[k].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary aggregates spans by name for the output document.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]spanSummary {
	out := map[string]spanSummary{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		e := out[s.Name]
		e.Count++
		e.TotalMs += float64(s.End-s.Start) / 1e6
		e.SelfMs += float64(self[i]) / 1e6
		out[s.Name] = e
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, ui.perfetto.dev); ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span, with its parent, op id and self time
// in args, to path.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "self_us": float64(self[i]) / 1e3},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
