// Package obs provides the serving tier's observability: a Chrome
// trace-event recorder (viewable in Perfetto / chrome://tracing), the
// node lane layout every serving driver records on, and the timeline
// types with the one virtual-clock sampler.
//
// The recorder is deliberately clock-agnostic: callers stamp events
// with whatever clock they run on. serve.Simulate and cluster.Simulate
// stamp their virtual clock, so a trace of a simulated run serializes
// byte-identically on every run; the real serve.Server stamps
// wall-clock offsets from its start. Events carry no maps or pointers
// into live state — every field marshals in declaration order — so
// serialization is deterministic whenever the emission order is.
//
// Trace.Node lays out one serving node as one trace process (control
// lane, a queue lane per model, a lane per replica group, an optional
// front-cache lane) at a caller-chosen pid: serve records its node at
// pid 0, cluster.Simulate node i at pid i+1. Sampler is the
// virtual-clock timeline sampler both simulators share; it integrates
// each replica group's busy time exactly.
package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"sort"
	"sync"
	"time"
)

// Phase values of the Chrome trace-event format (the ph field).
const (
	// PhaseComplete is a span: Ts marks its start, Dur its length.
	PhaseComplete = "X"
	// PhaseInstant is a point event; Scope says how wide to draw it.
	PhaseInstant = "i"
	// PhaseMetadata names processes and lanes (thread_name events).
	PhaseMetadata = "M"
)

// Args is the typed payload of a trace event. Only the fields relevant
// to an event's kind are set; the rest are omitted from JSON, so args
// objects stay small and deterministic (no map iteration order).
type Args struct {
	// Name labels the process or lane in PhaseMetadata events.
	Name string `json:"name,omitempty"`
	// Model is the batch's / restage's model.
	Model string `json:"model,omitempty"`
	// Batch is the dispatched micro-batch's request count.
	Batch int `json:"batch,omitempty"`
	// Seq is an ordinal: the batch number for queue/batch spans, the
	// re-plan number for replan instants.
	Seq int `json:"seq,omitempty"`
	// Cold marks a batch that paid the weight reload.
	Cold bool `json:"cold,omitempty"`
	// From is the model a restage evicted ("" = the group was free or
	// unknown on the wall clock).
	From string `json:"from,omitempty"`
	// Drift is the controller's mix total-variation distance that
	// triggered a re-plan.
	Drift float64 `json:"drift,omitempty"`
	// Restages is the number of group restages a re-plan ordered.
	Restages int `json:"restages,omitempty"`
}

// Event is one Chrome trace event. Timestamps and durations are in
// microseconds, the unit the format mandates; Micros converts from a
// clock offset.
type Event struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Phase string  `json:"ph"`
	Ts    float64 `json:"ts"`
	Dur   float64 `json:"dur,omitempty"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	// Scope sizes PhaseInstant events ("t" = thread-wide, the lane).
	Scope string `json:"s,omitempty"`
	// Cname is a viewer color hint ("good", "bad", "terrible").
	Cname string `json:"cname,omitempty"`
	Args  *Args  `json:"args,omitempty"`
}

// Micros converts a clock offset to the trace format's microsecond
// timestamps.
func Micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Trace is an append-only recorder of trace events, safe for
// concurrent use. The zero value is ready to record. A Trace holds one
// run: declaring a node's lanes twice would duplicate their metadata.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends one event.
func (t *Trace) Emit(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 on a nil Trace).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in emission order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// WriteJSON writes the trace in the Chrome trace-event JSON object
// format ({"traceEvents": [...]}), loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. Events are ordered metadata
// first, then by timestamp, with ties kept in emission order — so a
// recorder fed deterministically (the virtual clock) serializes
// byte-identically on every run.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return errors.New("obs: WriteJSON on a nil Trace")
	}
	t.mu.Lock()
	events := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Phase == PhaseMetadata, events[j].Phase == PhaseMetadata
		if mi != mj {
			return mi
		}
		return !mi && events[i].Ts < events[j].Ts
	})
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range events {
		blob, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(blob); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
