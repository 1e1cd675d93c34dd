package serve

import (
	"container/heap"
	"fmt"
	"time"

	"neuralcache/internal/node"
	"neuralcache/obs"
)

// ModelShare is one model's weight in a generated traffic mix: Model
// names a registered model ("" = the backend's default) and Weight its
// relative share of arrivals, normalized over the mix's weight sum — so
// {7, 3} and {0.7, 0.3} draw identically. A zero weight is allowed (the
// model gets no generated traffic); negative, NaN and infinite weights,
// and mixes whose weights sum to zero, are rejected by validation.
type ModelShare = node.Share

// MixShift is one scheduled traffic-mix change: from At (load-relative,
// t = 0 is the start of the arrival process) onward, arrivals draw
// their model from Mix — validated like Load.Mix, and non-empty —
// instead of the previous mix. The serving tier's drift controller
// (plan.Controller via Options.Replan) exists to chase exactly these
// shifts.
type MixShift = node.MixShift

// Load describes a generated arrival process. The default (Concurrency
// 0) is open-loop: requests arrive on their own schedule regardless of
// service progress, the regime the paper's throughput evaluation implies
// and the one that exposes queueing and rejection. Concurrency > 0
// switches to closed-loop: a fixed population of users each keeps
// exactly one request in flight, submitting the next one a think time
// after the previous completes — the regime that exposes latency under
// admission control rather than saturation.
type Load struct {
	// Rate is the mean arrival rate in requests per second (open-loop).
	// In closed-loop runs it is the per-user think rate: each user waits
	// a mean 1/Rate between completing one request and submitting the
	// next; 0 means no think time (users resubmit immediately).
	Rate float64
	// Requests is the number of arrivals to generate. When 0, arrivals
	// are generated for Duration instead.
	Requests int
	// Duration is the arrival window used when Requests is 0.
	Duration time.Duration
	// Seed seeds the Poisson process and the model-mix draw. The same
	// seed reproduces the same arrival schedule and model assignment
	// exactly.
	Seed int64
	// Poisson draws exponential interarrival times (a Poisson process)
	// instead of uniform spacing; in closed-loop runs it draws
	// exponential think times instead of constant 1/Rate.
	Poisson bool
	// Concurrency, when positive, makes the load closed-loop with that
	// many users. All users issue their first request at t = 0 (after an
	// initial think when Rate > 0). Must not exceed Options.QueueDepth,
	// so a user's submission can never be rejected.
	Concurrency int
	// Mix assigns each arrival a model, drawn independently with the
	// given weights from the seeded generator. Weights are relative —
	// normalized over their sum, so they need not sum to 1 — and are
	// validated: negative, NaN or infinite weights, and mixes summing
	// to zero, are rejected; individual zero weights are allowed and
	// draw nothing. Empty means every arrival targets the backend's
	// default model.
	Mix []ModelShare
	// MixSchedule shifts the traffic mix mid-run: each entry replaces
	// the active mix from its At onward (strictly ascending, At > 0).
	// Arrivals before the first shift draw from Mix. The schedule is
	// deterministic under Seed like everything else, making planned-
	// versus-reactive comparisons under mix drift reproducible.
	MixSchedule []MixShift
	// Reuse makes generated traffic repeat inputs: each arrival draws a
	// reuse key — which input it asks for — Zipf-distributed over a
	// finite universe, from the seeded generator, so repeat traffic is
	// replayable. The zero value keeps every arrival distinct. This is
	// the knob that exercises Options.Cache: the front-cache's hit rate
	// is the mass of the Zipf head that fits in its capacity.
	Reuse Reuse
}

// Reuse describes the input-repetition distribution of a generated
// load: arrivals ask for input k with the Zipf(ZipfS) probability over a
// universe of Universe distinct inputs (k = 0 is the most popular).
// Both fields must be set together: Universe must be positive and ZipfS
// must exceed 1 (the math/rand Zipf sampler's domain); NaN, infinite
// and negative skews are rejected. Production traces are commonly fit
// near s ≈ 1.1; larger s concentrates more mass on the head.
type Reuse = node.Reuse

// spec is the load in the shared generator's terms.
func (l Load) spec() node.Load {
	return node.Load{
		Rate: l.Rate, Requests: l.Requests, Duration: l.Duration, Seed: l.Seed,
		Poisson: l.Poisson, Concurrency: l.Concurrency,
		Mix: l.Mix, MixSchedule: l.MixSchedule, Reuse: l.Reuse,
	}
}

// closed reports whether the load is closed-loop.
func (l Load) closed() bool { return l.Concurrency > 0 }

func (l Load) validate() error {
	if err := l.spec().Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Event kinds of the discrete-event simulator.
const (
	evArrival = iota
	evCompletion
	evLinger
	// evRestage completes a planner-driven weight staging: the group
	// spent the model's §IV-E reload time streaming filters and is free
	// again, warm for its pinned model.
	evRestage
)

// event is one scheduled state change on the virtual clock.
type event struct {
	at   time.Duration
	seq  uint64 // FIFO tiebreak among equal times
	kind int
	// arrival / completion fields
	model int
	user  int    // closed-loop user issuing the arrival; -1 open-loop
	key   uint64 // reuse key of the arrival (front-cache identity)
	// completion-only fields
	shard    int
	arrivals []time.Duration
	items    []simItem // users and reuse keys of the batch; nil unless closed-loop or cached
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// simItem is a queued request's payload: its closed-loop user and its
// reuse key.
type simItem struct {
	user int
	key  uint64
}

// simModel is one registered model's accounting inside a run.
type simModel struct {
	name                      string
	offered, served, rejected int
	batches, warm, cold       int
	latencies                 []time.Duration
}

// sim is the state of one Simulate run: the node core — the same
// admission queue, per-model micro-batching and group scheduling the
// real Server applies — driven by events on a virtual clock.
type sim struct {
	backend   Backend
	opts      Options
	groupSize int  // slices per replica group
	closed    bool // closed-loop load (Load.Concurrency users)

	events eventHeap
	seq    uint64
	now    time.Duration

	core   *node.Core[simItem]
	models []*simModel
	index  map[string]int

	restages, replans int
	lastLinger        time.Duration

	tracer   *obs.Node    // nil when tracing is off (emits are no-ops)
	timeline *obs.Sampler // nil when timeline sampling is off

	gen *node.Arrivals

	// cache is the memoizing front-cache (nil when Options.Cache is
	// off): arrivals probe it by reuse key before admission, hits
	// complete cacheHitLatency later without touching a replica group,
	// and misses fill it at batch completion.
	cache     *Cache
	cacheHits int

	offered, served, rejected int
	batches, batched          int
	warm, cold                int
	latencies                 []time.Duration
	firstArrival              time.Duration
	lastCompletion            time.Duration
	shardUse                  []ShardUsage

	maxDepth   int
	depthInt   float64 // ∫ queue-depth dt, duration units
	lastDepthT time.Duration
}

// Simulate runs the serving policy against a generated load on a
// deterministic virtual clock. No goroutines, no wall-clock sleeps:
// service times come from Backend.ServiceTime (the analytic
// replica-group estimate) plus Backend.ReloadTime on cold dispatches, so
// hundreds of thousands of Inception-scale requests simulate in a few
// real seconds. The same backend, options and load produce an identical
// LoadReport on every run.
func Simulate(backend Backend, opts Options, load Load) (*LoadReport, error) {
	o, err := opts.withDefaults(backend.System())
	if err != nil {
		return nil, err
	}
	if err := load.validate(); err != nil {
		return nil, err
	}
	if load.closed() && load.Concurrency > o.QueueDepth {
		return nil, fmt.Errorf("serve: closed-loop concurrency %d exceeds queue depth %d",
			load.Concurrency, o.QueueDepth)
	}
	spec := load.spec()
	registered := backend.Models()
	s := &sim{
		backend:    backend,
		opts:       o,
		groupSize:  o.GroupSize,
		closed:     load.closed(),
		gen:        spec.Arrivals(),
		index:      make(map[string]int, len(registered)),
		lastLinger: -1,
		shardUse:   make([]ShardUsage, o.Replicas),
	}
	s.core = node.New[simItem](o.coreConfig(registered), s)
	if o.Cache.Enabled() {
		if s.cache, err = NewCache(o.Cache); err != nil {
			return nil, err
		}
	}
	for i, m := range registered {
		s.models = append(s.models, &simModel{name: m.Name()})
		s.index[m.Name()] = i
	}
	// Resolve the mix — including every scheduled shift — against the
	// registry up front so unknown models fail fast rather than mid-run.
	for _, name := range spec.Models() {
		if _, err := s.resolve(name); err != nil {
			return nil, err
		}
	}
	slices := backend.System().Config().Slices
	for i := range s.shardUse {
		s.shardUse[i].Shard = shardFor(i, slices, s.groupSize)
	}
	// Observability must attach before plan adoption: the startup
	// pre-stages below are part of the recorded run.
	if o.Trace != nil {
		s.tracer = o.Trace.Node(0, "neuralcache/serve (virtual clock)", modelNames(registered),
			GroupLanes(slices, s.groupSize, o.Replicas), o.Cache.Enabled())
	}
	if o.TimelineInterval > 0 {
		s.timeline = obs.NewSampler(o.TimelineInterval, o.Replicas, s.totals)
	}
	// Pre-stage every pinned group: the group spends the model's reload
	// time streaming filters before its first batch, so the traffic it
	// then serves dispatches warm.
	if err := startPlan(s.core, backend, o); err != nil {
		return nil, err
	}
	if s.closed {
		// Seed the user population: every user issues its first request
		// from t = 0 (after an initial think when Rate > 0).
		for u := 0; u < load.Concurrency; u++ {
			if err := s.scheduleUser(u, 0); err != nil {
				return nil, err
			}
		}
	} else if err := s.scheduleArrival(); err != nil {
		return nil, err
	}
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		s.timeline.Advance(e.at)
		s.now = e.at
		switch e.kind {
		case evArrival:
			err = s.onArrival(e)
		case evCompletion:
			err = s.onCompletion(e)
		case evRestage:
			err = s.core.Release(e.shard)
		}
		if err != nil {
			return nil, err
		}
		if err := s.dispatchReady(); err != nil {
			return nil, err
		}
	}
	return s.report(backend, load)
}

// Restage implements node.Clock: the group streams model mi's weights
// for the reload time, released by an evRestage event.
func (s *sim) Restage(g, mi, from int) error {
	rel, err := s.backend.ReloadTime(s.models[mi].name, s.groupSize)
	if err != nil {
		return err
	}
	s.push(&event{at: s.now + rel, kind: evRestage, shard: g})
	u := &s.shardUse[g]
	u.Restages++
	u.Busy += rel
	s.restages++
	s.tracer.Restage(g, mi, from, s.now, rel)
	s.timeline.Charge(g, s.now, rel)
	return nil
}

// Replanned implements node.Clock. The instant is emitted before the
// restages the re-plan causes (the serializer keeps emission order on
// equal timestamps).
func (s *sim) Replanned(now time.Duration, drift float64, ops int) {
	s.replans++
	s.tracer.Replan(now, s.replans, drift, ops)
}

// totals reports the run's state to the timeline sampler: queue depth
// and controller drift now, and every counter as a run total.
func (s *sim) totals() obs.TimelinePoint {
	p := obs.TimelinePoint{
		QueueDepth:     s.core.Depth(),
		Offered:        s.offered,
		Served:         s.served,
		Rejected:       s.rejected,
		WarmDispatches: s.warm,
		ColdDispatches: s.cold,
		Restages:       s.restages,
		Replans:        s.replans,
		CacheHits:      s.cacheHits,
	}
	if ctrl := s.core.Controller(); ctrl != nil {
		p.MixDrift = ctrl.Drift()
	}
	return p
}

// scheduleArrival pushes the next open-loop arrival, if any.
func (s *sim) scheduleArrival() error {
	at, model, key, ok := s.gen.Next()
	if !ok {
		return nil
	}
	mi, err := s.resolve(model)
	if err != nil {
		return err
	}
	s.push(&event{at: at, kind: evArrival, model: mi, user: -1, key: key})
	return nil
}

// scheduleUser pushes a closed-loop user's next arrival, drawn from the
// think-time generator relative to `from`; exhausting the budget retires
// the user.
func (s *sim) scheduleUser(user int, from time.Duration) error {
	at, model, key, ok := s.gen.NextClosed(from)
	if !ok {
		return nil
	}
	mi, err := s.resolve(model)
	if err != nil {
		return err
	}
	s.push(&event{at: at, kind: evArrival, model: mi, user: user, key: key})
	return nil
}

// resolve maps a load-mix model name ("" = default) to its registry
// index.
func (s *sim) resolve(name string) (int, error) {
	m, err := s.backend.Lookup(name)
	if err != nil {
		return 0, err
	}
	mi, ok := s.index[m.Name()]
	if !ok {
		return 0, fmt.Errorf("serve: model %q not in backend registry", m.Name())
	}
	return mi, nil
}

func (s *sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// syncDepth integrates the queue depth up to the current virtual time;
// call before every depth change.
func (s *sim) syncDepth() {
	s.depthInt += float64(s.core.Depth()) * float64(s.now-s.lastDepthT)
	s.lastDepthT = s.now
}

func (s *sim) onArrival(e *event) error {
	m := s.models[e.model]
	s.offered++
	m.offered++
	if s.offered == 1 {
		s.firstArrival = s.now
	}
	switch {
	case s.cache != nil && s.cache.LookupKey(m.name, e.key):
		// Front-cache hit: the request completes cacheHitLatency later
		// without entering the queue — it can neither be rejected nor
		// occupy a replica group. The probe cost also keeps a think-free
		// closed loop from resubmitting forever at a frozen instant.
		done := s.now + cacheHitLatency
		s.cacheHits++
		s.served++
		m.served++
		s.latencies = append(s.latencies, cacheHitLatency)
		m.latencies = append(m.latencies, cacheHitLatency)
		if done > s.lastCompletion {
			s.lastCompletion = done
		}
		s.tracer.CacheHit(e.model, s.now)
		if ctrl := s.core.Controller(); ctrl != nil {
			ctrl.ObserveCacheHit(m.name, s.now)
		}
		if s.closed {
			return s.scheduleUser(e.user, done)
		}
	case s.core.Depth() >= s.opts.QueueDepth:
		// Unreachable closed-loop: concurrency is validated against the
		// queue depth, so the population can never overfill it.
		s.rejected++
		m.rejected++
		s.tracer.Reject(e.model, s.now)
	default:
		s.syncDepth()
		s.core.Push(e.model, s.now, simItem{user: e.user, key: e.key})
		s.maxDepth = max(s.maxDepth, s.core.Depth())
	}
	if s.closed {
		return nil // the next arrival chains off this request's completion
	}
	return s.scheduleArrival()
}

func (s *sim) onCompletion(e *event) error {
	if err := s.core.Release(e.shard); err != nil {
		return err
	}
	m := s.models[e.model]
	s.served += len(e.arrivals)
	m.served += len(e.arrivals)
	if s.now > s.lastCompletion {
		s.lastCompletion = s.now
	}
	for _, at := range e.arrivals {
		s.latencies = append(s.latencies, s.now-at)
		m.latencies = append(m.latencies, s.now-at)
	}
	// Misses fill the cache on completion, in batch order.
	if s.cache != nil {
		for _, it := range e.items {
			s.cache.InsertKey(m.name, it.key)
		}
	}
	if s.closed {
		// Each finished user thinks, then submits its next request.
		for _, it := range e.items {
			if err := s.scheduleUser(it.user, s.now); err != nil {
				return err
			}
		}
	}
	return nil
}

// dispatchReady dispatches every batch the core's ready pick allows now;
// when nothing is ready it schedules the earliest linger deadline.
func (s *sim) dispatchReady() error {
	for {
		mi, deadline := s.core.Ready(s.now)
		if mi < 0 {
			if deadline >= 0 && deadline != s.lastLinger {
				s.push(&event{at: deadline, kind: evLinger})
				s.lastLinger = deadline
			}
			return nil
		}
		if err := s.dispatchBatch(mi); err != nil {
			return err
		}
	}
}

// dispatchBatch pops one batch of model mi onto the group the core
// claims, schedules its completion and runs the controller step.
func (s *sim) dispatchBatch(mi int) error {
	m := s.models[mi]
	s.syncDepth()
	at, items := s.core.Pop(mi)
	shard, warmHit := s.core.Claim(mi)
	n := len(at)
	batch := append([]time.Duration(nil), at...)
	var payload []simItem
	if s.closed || s.cache != nil {
		payload = append([]simItem(nil), items...)
	}
	st, err := s.backend.ServiceTime(m.name, n, s.groupSize)
	if err != nil {
		return err
	}
	var rel time.Duration
	if !warmHit {
		if rel, err = s.backend.ReloadTime(m.name, s.groupSize); err != nil {
			return err
		}
	}
	occupancy := st + rel
	s.push(&event{at: s.now + occupancy, kind: evCompletion, shard: shard, model: mi, arrivals: batch, items: payload})
	s.batches++
	s.batched += n
	m.batches++
	if warmHit {
		s.warm++
		m.warm++
	} else {
		s.cold++
		m.cold++
	}
	u := &s.shardUse[shard]
	u.Batches++
	u.Requests += n
	u.Busy += occupancy
	if !warmHit {
		u.Reloads++
	}
	if s.tracer != nil {
		for _, at := range batch {
			s.tracer.Queued(mi, at, s.now, s.batches)
		}
		s.tracer.Batch(shard, mi, n, !warmHit, s.batches, s.now, st, rel)
	}
	s.timeline.Charge(shard, s.now, occupancy)
	return s.core.Step(mi, n, s.now)
}

func (s *sim) report(backend Backend, load Load) (*LoadReport, error) {
	r := &LoadReport{
		Backend:     backend.Name(),
		Model:       modelList(backend),
		Replicas:    s.opts.Replicas,
		MaxBatch:    s.opts.MaxBatch,
		MaxLinger:   s.opts.MaxLinger,
		QueueDepth:  s.opts.QueueDepth,
		Concurrency: load.Concurrency,
		Virtual:     true,
		Offered:     s.offered,
		Served:      s.served,
		Rejected:    s.rejected,
		Batches:     s.batches,

		WarmDispatches: s.warm,
		ColdDispatches: s.cold,

		MaxQueueDepth: s.maxDepth,
		PerShard:      s.shardUse,

		Plan:     s.core.Plan(),
		Restages: s.restages,
		Replans:  s.replans,
	}
	if s.groupSize > 1 {
		r.GroupSize = s.groupSize
	}
	if s.batches > 0 {
		r.MeanBatch = float64(s.batched) / float64(s.batches)
	}
	var cacheStats map[string]CacheStats
	if s.cache != nil {
		cs := s.cache.Stats()
		r.CacheHits = cs.Hits
		r.CacheMisses = cs.Misses
		r.CacheInserts = cs.Inserts
		r.CacheEvictions = cs.Evictions
		if n := cs.Hits + cs.Misses; n > 0 {
			r.CacheHitRate = float64(cs.Hits) / float64(n)
		}
		cacheStats = s.cache.ModelStats()
	}
	perModelLat := make(map[string][]time.Duration, len(s.models))
	for _, m := range s.models {
		mu := ModelUsage{
			Model:       m.name,
			Offered:     m.offered,
			Served:      m.served,
			Rejected:    m.rejected,
			Batches:     m.batches,
			WarmBatches: m.warm,
			ColdBatches: m.cold,
		}
		if cs, ok := cacheStats[m.name]; ok {
			mu.CacheHits = cs.Hits
			mu.CacheMisses = cs.Misses
			if n := cs.Hits + cs.Misses; n > 0 {
				mu.CacheHitRate = float64(cs.Hits) / float64(n)
			}
		}
		r.PerModel = append(r.PerModel, mu)
		perModelLat[m.name] = m.latencies
	}
	// s.now is the final event's time (≥ last completion: trailing
	// restages included), so the closing sample catches every counter
	// increment and windowed sums equal the run totals.
	r.Timeline = s.timeline.Finish(s.now)
	makespan := s.lastCompletion - s.firstArrival
	r.Makespan = makespan
	if makespan > 0 {
		r.ThroughputPerSec = float64(s.served) / makespan.Seconds()
		r.MeanQueueDepth = s.depthInt / float64(makespan)
	}
	if err := r.finish(backend, s.latencies, perModelLat, makespan); err != nil {
		return nil, err
	}
	return r, nil
}

// modelList joins the backend's registered model names for the report
// header.
func modelList(backend Backend) string {
	return joinModelNames(backend.Models(), ",")
}
