package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestMicros(t *testing.T) {
	if got := Micros(1500 * time.Nanosecond); got != 1.5 {
		t.Fatalf("Micros(1.5µs) = %v", got)
	}
	if got := Micros(3 * time.Second); got != 3e6 {
		t.Fatalf("Micros(3s) = %v", got)
	}
	if got := Micros(0); got != 0 {
		t.Fatalf("Micros(0) = %v", got)
	}
}

// TestWriteJSONOrdering: serialization puts metadata events first, then
// sorts by timestamp with ties kept in emission order — the contract
// that makes a deterministically fed recorder serialize byte-identically.
func TestWriteJSONOrdering(t *testing.T) {
	var tr Trace
	tr.Emit(Event{Name: "late", Phase: PhaseComplete, Ts: 20, Dur: 1})
	tr.Emit(Event{Name: "tie-a", Phase: PhaseInstant, Ts: 10, Scope: "t"})
	tr.Emit(Event{Name: "thread_name", Phase: PhaseMetadata, Tid: 1, Args: &Args{Name: "lane"}})
	tr.Emit(Event{Name: "tie-b", Phase: PhaseInstant, Ts: 10, Scope: "t"})
	tr.Emit(Event{Name: "early", Phase: PhaseComplete, Ts: 1, Dur: 2})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		names = append(names, e.Name)
	}
	want := []string{"thread_name", "early", "tie-a", "tie-b", "late"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("serialized order %v, want %v", names, want)
	}
	// Emission remains untouched: Events keeps emission order and the
	// recorder serializes identically a second time.
	if got := tr.Events(); got[0].Name != "late" || len(got) != 5 {
		t.Fatalf("Events reordered or resized: %v", got)
	}
	var again bytes.Buffer
	if err := tr.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two serializations of the same trace differ")
	}
}

// TestEventJSONOmitsEmpty: optional fields (and unset Args members) stay
// out of the JSON so event lines carry only what their kind needs.
func TestEventJSONOmitsEmpty(t *testing.T) {
	blob, err := json.Marshal(Event{Name: "reject", Phase: PhaseInstant, Ts: 5, Tid: 2, Scope: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{`"dur"`, `"cat"`, `"cname"`, `"args"`} {
		if bytes.Contains(blob, []byte(absent)) {
			t.Fatalf("instant event leaked %s: %s", absent, blob)
		}
	}
	blob, err = json.Marshal(Event{Name: "b", Phase: PhaseComplete, Ts: 1, Dur: 2,
		Args: &Args{Model: "m", Batch: 3, Cold: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"args":{"model":"m","batch":3,"cold":true}`)) {
		t.Fatalf("args did not marshal minimally: %s", blob)
	}
}

// TestTimelineJSONRoundTrip: a timeline survives marshal/unmarshal and
// omits its optional counters when zero.
func TestTimelineJSONRoundTrip(t *testing.T) {
	tl := Timeline{Interval: time.Second, Samples: []TimelinePoint{
		{T: time.Second, QueueDepth: 3, BusyGroups: 2, Offered: 10, Served: 8,
			WarmDispatches: 2, ColdDispatches: 1, GroupUtil: []float64{0.5, 1}},
		{T: 2 * time.Second, Offered: 4, Served: 6, Rejected: 1, Restages: 2,
			Replans: 1, GroupUtil: []float64{0, 0.25}, MixDrift: 0.3},
	}}
	blob, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	var back Timeline
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Interval != tl.Interval || len(back.Samples) != 2 ||
		back.Samples[1].MixDrift != 0.3 || back.Samples[0].GroupUtil[1] != 1 {
		t.Fatalf("round-trip mangled the timeline: %+v", back)
	}
	first, err := json.Marshal(tl.Samples[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{`"rejected"`, `"restages"`, `"replans"`, `"mix_drift"`} {
		if bytes.Contains(first, []byte(absent)) {
			t.Fatalf("zero-valued optional counter %s leaked: %s", absent, first)
		}
	}
}

// TestSamplerIntegratesExactly: a group's busy time lands in the windows
// its interval covers, boundaries sample the right-limit (an event at a
// boundary counts in the window it closes), a cut interval stops at the
// cut, a short final window closes the run, and windowed counters are
// the differences of the driver's running totals.
func TestSamplerIntegratesExactly(t *testing.T) {
	const ms = time.Millisecond
	served := 0
	s := NewSampler(10*ms, 2, func() TimelinePoint { return TimelinePoint{Served: served} })
	s.Charge(0, 5*ms, 10*ms) // group 0 busy [5, 15)
	s.Advance(10 * ms)       // the boundary at 10 waits for events at 10
	served = 3               // an event at exactly 10
	s.Advance(25 * ms)
	s.Charge(1, 25*ms, 10*ms) // group 1 busy [25, 35), cut at 28
	s.Advance(28 * ms)
	s.Cut(1, 28*ms)
	served = 5
	tl := s.Finish(34 * ms)

	want := []TimelinePoint{
		{T: 10 * ms, BusyGroups: 1, Served: 3, GroupUtil: []float64{0.5, 0}},
		{T: 20 * ms, GroupUtil: []float64{0.5, 0}},
		{T: 30 * ms, Served: 2, GroupUtil: []float64{0, 0.3}},
		{T: 34 * ms, GroupUtil: []float64{0, 0}},
	}
	if tl.Interval != 10*ms || len(tl.Samples) != len(want) {
		t.Fatalf("timeline %+v, want %d samples every 10ms", tl, len(want))
	}
	for i, p := range tl.Samples {
		w := want[i]
		if p.T != w.T || p.BusyGroups != w.BusyGroups || p.Served != w.Served ||
			p.GroupUtil[0] != w.GroupUtil[0] || p.GroupUtil[1] != w.GroupUtil[1] {
			t.Errorf("sample %d = %+v, want %+v", i, p, w)
		}
	}
	var nilSampler *Sampler
	nilSampler.Charge(0, 0, ms)
	nilSampler.Advance(ms)
	if nilSampler.Finish(ms) != nil {
		t.Error("nil sampler returned a timeline")
	}
}
