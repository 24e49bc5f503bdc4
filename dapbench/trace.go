package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call. A figure point is a "point" span whose children
// are its harness phase calls; every span of a point shares its id.
// Set-up spans carry negative ids.
type span struct {
	name       string
	point      int
	parent     int // index of the parent span, -1 for a root
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, point, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, point, parent, start, end})
	return len(t.spans) - 1
}

// end closes a span opened with a zero end time.
func (t *tracer) end(i int, at time.Time) {
	if t != nil {
		t.spans[i].end = at
	}
}

// selfTimes returns each span's duration minus the time its children cover.
// Children of one span run one after another, so their durations add.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end.Sub(s.start)
		if s.parent >= 0 {
			self[s.parent] -= s.end.Sub(s.start)
		}
	}
	return self
}

// writeChrome writes the spans in Chrome trace-event JSON, loadable in
// Perfetto; each event's args carry its point id and self time.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", Ts: us(s.start.Sub(t.t0)), Dur: us(s.end.Sub(s.start)),
			Args: map[string]any{"point": s.point, "self_us": us(self[i])}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
