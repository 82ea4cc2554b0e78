package main

import (
	"encoding/json"
	"io"
	"time"
)

// tracer keeps the ledger run's spans in memory; a nil *tracer records
// nothing, which is how the untraced climbs run the same code.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = t.now()
}

// add records an already-finished interval measured on the wall clock.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  start.Sub(t.origin).Seconds(),
		End:    end.Sub(t.origin).Seconds(),
		Parent: parent,
	})
}

// chromeEvent is one entry of the Chrome trace-event format, the format the
// repository's flight recorder already exports (telemetry.WriteChromeTrace):
// Perfetto and chrome://tracing load it.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as complete ("X") events. Each event carries
// its span id, its parent's id and its self time in the args, so the causal
// tree survives viewers that only nest by time.
func (t *tracer) writeChrome(w io.Writer) error {
	self := selfTimes(t.spans)
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": "ddprof perfbench ledger"},
	}}
	for i, s := range t.spans {
		dur := int64((s.End - s.Start) * 1e6)
		if dur < 1 {
			dur = 1 // zero-duration X events vanish in viewers
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: int64(s.Start * 1e6), Dur: dur, Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "self_us": int64(self[i] * 1e6)},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
