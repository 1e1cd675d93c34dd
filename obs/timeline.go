package obs

import "time"

// TimelinePoint is one sample of the serving tier's time series. Depth
// and occupancy fields are instantaneous (the state at T); counter
// fields are windowed (what happened inside (T−window, T], where the
// window is the timeline's Interval for every sample but a possibly
// shorter final one). Summing a windowed field over all samples of a
// run yields the run's total.
type TimelinePoint struct {
	// T is the sample time — the end of the sampled window — relative
	// to the run's t = 0.
	T time.Duration `json:"t_ns"`
	// QueueDepth is the admitted-but-undispatched request count at T.
	QueueDepth int `json:"queue_depth"`
	// BusyGroups is how many replica groups are busy at T (serving a
	// batch or restaging weights).
	BusyGroups int `json:"busy_groups"`
	// Offered, Served and Rejected count the window's arrivals,
	// completions and queue-full rejections.
	Offered  int `json:"offered"`
	Served   int `json:"served"`
	Rejected int `json:"rejected,omitempty"`
	// WarmDispatches and ColdDispatches split the window's batch
	// dispatches by whether the group already staged the batch's model.
	WarmDispatches int `json:"warm_dispatches"`
	ColdDispatches int `json:"cold_dispatches"`
	// Restages counts the window's planner-driven weight stagings,
	// Replans its applied controller re-plans.
	Restages int `json:"restages,omitempty"`
	Replans  int `json:"replans,omitempty"`
	// CacheHits counts the window's front-cache hits — requests served
	// at admission without touching a replica group. Always 0 (and
	// omitted) when the run has no cache.
	CacheHits int `json:"cache_hits,omitempty"`
	// GroupUtil is the window's busy fractions: one entry per replica
	// group in group-ordinal order on a single node, one per node on a
	// cluster (the mean of that node's groups). Virtual-clock samples
	// (Sampler) integrate exactly, so every entry lies in [0, 1]; a
	// killed node's groups stop being busy at the kill instant.
	// Wall-clock samples charge a batch's busy time at completion, so a
	// window's fraction can exceed 1 when a long batch completes in it.
	GroupUtil []float64 `json:"group_util"`
	// MixDrift is the drift controller's total-variation distance
	// between the active plan's mix and the observed served mix at T; 0
	// when no controller is attached.
	MixDrift float64 `json:"mix_drift,omitempty"`
}

// Timeline is a run's sampled time series: one point per Interval, plus
// a shorter final window when the run does not end on a boundary.
type Timeline struct {
	Interval time.Duration   `json:"interval_ns"`
	Samples  []TimelinePoint `json:"samples"`
}

// Sampler samples a virtual-clock run's time series: the one sampler
// serve.Simulate and cluster.Simulate share. The driver calls Advance
// with each event's time before processing it, so a boundary is
// sampled against the piecewise-constant state just before the first
// event after it — a boundary coinciding exactly with an event samples
// after that event's effects (the right-limit). That is what lets
// Finish close the books: it samples every remaining boundary through
// the run's final event and adds a shorter final window when the run
// ends off-boundary, so every windowed counter sums to the run's total.
//
// Busy time integrates exactly per replica group: each claim charges
// its whole interval up front (the simulator knows both endpoints at
// claim time), and a window's GroupUtil entry is the part of the
// group's intervals that falls inside it, over the window's width — so
// it lies in [0, 1]. All arithmetic is integer or exact-division
// float64, so the timeline is byte-deterministic like the simulators.
// A nil *Sampler is a valid no-op.
type Sampler struct {
	interval time.Duration
	next     time.Duration // next boundary to sample
	read     func() TimelinePoint
	last     TimelinePoint // cumulative counters at the previous sample
	samples  []TimelinePoint

	// Per-group busy accounting: cumBusy accumulates charged lengths,
	// busyUntil holds the current interval's end. The busy time
	// realized by time t is cumBusy − max(0, busyUntil−t); realized
	// keeps its value at the previous boundary, so a window's busy time
	// is the difference.
	cumBusy   []time.Duration
	busyUntil []time.Duration
	realized  []time.Duration
}

// NewSampler returns a sampler over groups replica groups that samples
// every interval. read reports the driver's state at a sample instant:
// QueueDepth and MixDrift as they stand, and each windowed counter
// field (Offered through CacheHits) as the run's cumulative total. The
// sampler differences consecutive totals into windows and fills T,
// BusyGroups and GroupUtil itself.
func NewSampler(interval time.Duration, groups int, read func() TimelinePoint) *Sampler {
	return &Sampler{
		interval:  interval,
		next:      interval,
		read:      read,
		samples:   []TimelinePoint{},
		cumBusy:   make([]time.Duration, groups),
		busyUntil: make([]time.Duration, groups),
		realized:  make([]time.Duration, groups),
	}
}

// Charge records a group's busy interval [start, start+dur): a batch's
// reload+service occupancy or a planner restage. Intervals on one
// group never overlap — the group is claimed for their whole length.
func (s *Sampler) Charge(group int, start, dur time.Duration) {
	if s == nil {
		return
	}
	s.cumBusy[group] += dur
	s.busyUntil[group] = start + dur
}

// Cut ends a group's open busy interval at at: the group died (a node
// kill) and never realizes the rest of its charge.
func (s *Sampler) Cut(group int, at time.Duration) {
	if s == nil {
		return
	}
	if over := s.busyUntil[group] - at; over > 0 {
		s.cumBusy[group] -= over
		s.busyUntil[group] = at
	}
}

// Advance samples every boundary strictly before now (a boundary equal
// to now waits for now's events to apply first).
func (s *Sampler) Advance(now time.Duration) {
	if s == nil {
		return
	}
	for s.next < now {
		s.sample(s.next, s.interval)
		s.next += s.interval
	}
}

// Finish samples through end — the run's final event time, inclusive,
// so that event's counters are captured — closing with a shorter final
// window when the run does not end on a boundary. A nil sampler
// returns nil.
func (s *Sampler) Finish(end time.Duration) *Timeline {
	if s == nil {
		return nil
	}
	for s.next <= end {
		s.sample(s.next, s.interval)
		s.next += s.interval
	}
	if prev := s.next - s.interval; end > prev {
		s.sample(end, end-prev)
	}
	return &Timeline{Interval: s.interval, Samples: s.samples}
}

func (s *Sampler) sample(at, width time.Duration) {
	cur := s.read()
	p := TimelinePoint{
		T:              at,
		QueueDepth:     cur.QueueDepth,
		Offered:        cur.Offered - s.last.Offered,
		Served:         cur.Served - s.last.Served,
		Rejected:       cur.Rejected - s.last.Rejected,
		WarmDispatches: cur.WarmDispatches - s.last.WarmDispatches,
		ColdDispatches: cur.ColdDispatches - s.last.ColdDispatches,
		Restages:       cur.Restages - s.last.Restages,
		Replans:        cur.Replans - s.last.Replans,
		CacheHits:      cur.CacheHits - s.last.CacheHits,
		GroupUtil:      make([]float64, len(s.cumBusy)),
		MixDrift:       cur.MixDrift,
	}
	for g := range s.cumBusy {
		if s.busyUntil[g] > at {
			p.BusyGroups++
		}
		realized := s.cumBusy[g]
		if over := s.busyUntil[g] - at; over > 0 {
			realized -= over
		}
		p.GroupUtil[g] = float64(realized-s.realized[g]) / float64(width)
		s.realized[g] = realized
	}
	s.last = cur
	s.samples = append(s.samples, p)
}
