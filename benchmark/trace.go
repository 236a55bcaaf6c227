package main

import (
	"encoding/json"
	"os"
	"time"

	"mic/internal/sim"
)

// The traced pass records spans from the benchmark's own files only, around
// the calls into each layer, keeps them in memory and writes them as
// Chrome-trace JSON when the pass ends. A nil *tracer is the untraced pass:
// every method is a no-op and the engine runs without slicing.
//
// Two timelines share one file: process 1 is the wall clock of the simulator
// (iteration, build steps, run, verify, and one counter sample per engine
// slice); process 2 is the virtual clock of the modelled fabric (dials,
// transfers, faults, takeovers), each iteration laid out after the previous
// one. Spans of the virtual timeline carry the wall clock at both ends in
// their args. Identity is a channel ID or a flow index, never an endpoint
// address.

const (
	pidWall    = 1
	pidVirtual = 2

	// traceSlice is the virtual-time step the traced pass drives the engine
	// in, so host cost per event is visible per scenario phase.
	traceSlice = time.Millisecond

	// virtGap separates consecutive iterations on the virtual timeline.
	virtGap = 10 * time.Millisecond
)

// traceEvent is one Chrome-trace event ("X" complete span, "C" counter).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type tracer struct {
	origin   time.Time // wall origin of the pass
	events   []traceEvent
	iter     int
	virtBase time.Duration // where this iteration starts on the virtual timeline
	virtEnd  time.Duration // furthest virtual instant seen this iteration

	// Peaks sampled at slice boundaries over the whole pass.
	pendingPeak int
	entriesPeak int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) wallUs(at time.Time) float64 { return float64(at.Sub(t.origin)) / 1e3 }

// beginIter starts iteration i on both timelines.
func (t *tracer) beginIter(i int) {
	if t == nil {
		return
	}
	t.iter = i
	t.virtBase += t.virtEnd
	if i > 0 {
		t.virtBase += virtGap
	}
	t.virtEnd = 0
}

// span records a wall-clock span that started at start and ends now. parent
// names the span that caused it.
func (t *tracer) span(name, parent string, start time.Time) {
	if t != nil {
		t.spanTo(name, parent, start, time.Now())
	}
}

// spanTo records a wall-clock span with both ends given.
func (t *tracer) spanTo(name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "wall", Ph: "X", Ts: t.wallUs(start), Dur: float64(end.Sub(start)) / 1e3,
		Pid: pidWall, Tid: 1,
		Args: map[string]any{"iter": t.iter, "parent": parent},
	})
}

// virtSpan records a span on the virtual timeline: from vStart to vEnd in
// virtual time, with the wall clock at both ends. id identifies the request
// (channel ID or flow index); lane spreads concurrent requests over rows.
func (t *tracer) virtSpan(name, parent string, lane int, id uint64, vStart, vEnd sim.Time, wStart, wEnd time.Time, outcome string) {
	if t == nil {
		return
	}
	if d := time.Duration(vEnd); d > t.virtEnd {
		t.virtEnd = d
	}
	args := map[string]any{
		"iter": t.iter, "parent": parent, "id": id,
		"wall_start_us": t.wallUs(wStart), "wall_end_us": t.wallUs(wEnd),
	}
	if outcome != "" {
		args["outcome"] = outcome
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "virtual", Ph: "X",
		Ts: float64(t.virtBase+time.Duration(vStart)) / 1e3, Dur: float64(vEnd-vStart) / 1e3,
		Pid: pidVirtual, Tid: lane, Args: args,
	})
}

// virtMark records an instantaneous event (a chaos fault, a takeover) on the
// virtual timeline.
func (t *tracer) virtMark(name string, at sim.Time, args map[string]any) {
	if t == nil {
		return
	}
	if args == nil {
		args = map[string]any{}
	}
	args["iter"] = t.iter
	args["parent"] = "run"
	args["wall_us"] = t.wallUs(time.Now())
	if d := time.Duration(at); d > t.virtEnd {
		t.virtEnd = d
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "virtual", Ph: "X",
		Ts: float64(t.virtBase+time.Duration(at)) / 1e3, Dur: 1,
		Pid: pidVirtual, Tid: 0, Args: args,
	})
}

// run drives the bed's engine to quiescence.
func (t *tracer) run(b *bed) {
	if t == nil {
		b.eng.Run()
		return
	}
	for b.eng.Pending() > 0 {
		t.slice(b, b.eng.Now().Add(traceSlice))
	}
}

// runUntil drives the bed's engine up to the virtual deadline.
func (t *tracer) runUntil(b *bed, deadline sim.Time) {
	if t == nil {
		b.eng.RunUntil(deadline)
		return
	}
	for b.eng.Now() < deadline {
		next := b.eng.Now().Add(traceSlice)
		if next > deadline {
			next = deadline
		}
		t.slice(b, next)
	}
}

// slice runs one step of virtual time and samples the counters at its
// boundary: wall cost, events fired, queue depth, and the fabric's and
// southbound channels' counter deltas. RunUntil fires exactly the events
// Run would, in the same order, so slicing changes no simulated outcome.
func (t *tracer) slice(b *bed, until sim.Time) {
	ev0, fwd0, mods0 := b.eng.Processed(), b.net.Stats.Forwarded, b.southboundMods()
	w0 := time.Now()
	b.eng.RunUntil(until)
	wall := time.Since(w0)
	if p := b.eng.Pending(); p > t.pendingPeak {
		t.pendingPeak = p
	}
	if n := b.tableEntries(); n > t.entriesPeak {
		t.entriesPeak = n
	}
	events := b.eng.Processed() - ev0
	if events == 0 {
		return // idle slice: nothing to attribute
	}
	t.events = append(t.events, traceEvent{
		Name: "engine", Cat: "slice", Ph: "C", Ts: t.wallUs(w0), Pid: pidWall, Tid: 1,
		Args: map[string]any{
			"ns_per_event": float64(wall.Nanoseconds()) / float64(events),
			"events":       events,
			"pending":      b.eng.Pending(),
			"forwarded":    b.net.Stats.Forwarded - fwd0,
			"southbound":   b.southboundMods() - mods0,
			"virtual_ms":   float64(until) / 1e6,
		},
	})
}

// write stores the pass as Chrome-trace JSON.
func (t *tracer) write(path string) error {
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{t.events, "ms"}
	out, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
