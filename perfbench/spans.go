package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one request (or one simulation
// pass) share Req; a batch span serves several requests and lists them
// in Reqs instead.
type span struct {
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Req    int           `json:"req"`
	Reqs   []int         `json:"reqs,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// at converts a wall-clock instant to the recorder's offset.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.t0) }

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the part covered by their child spans.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		parent string
		req    int
	}
	type iv struct{ lo, hi time.Duration }
	children := make(map[key][]iv)
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		reqs := s.Reqs
		if reqs == nil {
			reqs = []int{s.Req}
		}
		for _, q := range reqs {
			k := key{s.Parent, q}
			children[k] = append(children[k], iv{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start
		if s.Reqs == nil {
			kids := children[key{s.Name, s.Req}]
			sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
			cur := s.Start
			for _, c := range kids {
				lo, hi := max(c.lo, cur), min(c.hi, s.End)
				if hi > lo {
					d -= hi - lo
					cur = hi
				}
			}
		}
		self[s.Name] += d
	}
	return self
}

// write saves the spans and the per-layer self times under
// .bench_build/perfbench in the working directory and returns the path.
func (r *recorder) write(workload string, seed int64) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfMs := make(map[string]float64)
	for name, d := range selfTimes(r.spans) {
		selfMs[name] = msOf(d)
	}
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workload,
		"seed":     seed,
		"self_ms":  selfMs,
		"spans":    r.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
