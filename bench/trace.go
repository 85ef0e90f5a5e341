package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of the
// span that caused it, -1 for a root; spans of one repetition or campaign
// share the root's ID.
type span struct {
	Name   string
	Parent int
	Start  time.Duration // since the tracer's origin
	Dur    time.Duration
	Args   map[string]any
}

// tracer keeps spans in memory until the run ends; nothing is written while
// the clock is running.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its index, for use as a child's parent.
func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration, args map[string]any) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start.Sub(t.origin), Dur: dur, Args: args})
	return len(t.spans) - 1
}

// selfTime sums, per span name, each span's duration minus the part its
// direct children cover.
func (t *tracer) selfTime() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += s.Dur - child[i]
	}
	return self
}

// total sums the duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). Children nest under their parent by
// time containment on one thread row per root.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Args: s.Args,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
