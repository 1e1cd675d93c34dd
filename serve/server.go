package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"neuralcache"
	"neuralcache/internal/node"
	"neuralcache/obs"
	"neuralcache/plan"
)

// Response is the outcome of one served request.
type Response struct {
	// ID is the server-assigned admission ordinal (1-based).
	ID uint64
	// Model is the registered model the request was served on.
	Model string
	// Result is the bit-accurate inference result; nil for the analytic
	// backend, which models time rather than values.
	Result *neuralcache.InferenceResult
	// Err is the failure, if any. A batch-level execution failure fails
	// every request of the batch.
	Err error
	// Shard is the replica group that served the request. A request
	// canceled before dispatch never reached a group: its Shard is
	// NoShard and its BatchSize is 0.
	Shard Shard
	// BatchSize is the size of the micro-batch the request rode in; 0
	// for requests canceled before dispatch.
	BatchSize int
	// Cold reports that the batch paid the §IV-E weight-reload cost: its
	// replica's staged model changed (or it was the replica's first
	// dispatch).
	Cold bool
	// CacheHit reports that the front-cache served the request at
	// admission: it never queued, never rode a batch and never touched
	// a replica group (Shard is NoShard, BatchSize 0). Result is the
	// memoized output — treat it as read-only, it is shared with the
	// cache entry.
	CacheHit bool
	// Queued is the time from admission to dispatch — or, for a request
	// canceled while queued, from admission to the drop. Latency is the
	// time from admission to completion (zero when canceled).
	Queued  time.Duration
	Latency time.Duration
}

// request is one admitted unit of work.
type request struct {
	id       uint64
	model    string // resolved registered model name
	mi       int    // the model's registry index
	input    *neuralcache.Tensor
	ctx      context.Context
	enqueued time.Time
	resp     chan *Response // buffered, capacity 1
}

// Server is the asynchronous inference service: a bounded admission
// queue feeding a batcher goroutine that drives the node scheduling core
// (package internal/node) on the wall clock — per-model micro-batches,
// dispatched onto free replica groups warm-first (plan-aware under a
// residency plan), with the drift controller step following each claim
// exactly as in Simulate. Create with NewServer, stop with Close.
type Server struct {
	backend   Backend
	opts      Options
	slices    int // slices per socket, for shard naming
	groupSize int // slices per replica group

	queue chan *request

	// core is the node scheduler — per-model queues and replica-group
	// state, indexed by registry order (names) — guarded by coreMu. The
	// batcher queues, picks and claims; executor and restage goroutines
	// release. groupFreed wakes a Close-time flush waiting on busy
	// groups; freed wakes the batcher's wait (capacity-1, lossy — a
	// pending token already guarantees a wakeup).
	coreMu     sync.Mutex
	groupFreed *sync.Cond
	freed      chan struct{}
	core       *node.Core[*request]
	names      []string
	index      map[string]int
	// ctrl is the core's drift controller (nil unless planned with
	// Options.Replan), fixed once NewServer returns.
	ctrl *plan.Controller

	// cache is the memoizing front-cache (nil when Options.Cache is
	// off): submissions with an input tensor probe it before admission,
	// hits complete immediately, and misses fill it when their batch
	// completes successfully.
	cache *Cache

	// tracer records the request lifecycle on the wall clock (offsets
	// from started); nil when tracing is off — every emit is a no-op.
	tracer *obs.Node

	mu         sync.RWMutex // guards closed against concurrent Submit/Close
	closed     bool
	closing    chan struct{}  // closed by Close; wakes Submits blocked on a full queue
	submitters sync.WaitGroup // in-flight submit calls past the closed check

	batcherDone chan struct{}
	execWG      sync.WaitGroup

	nextID  atomic.Uint64
	started time.Time

	// depth is the admitted-minus-dispatched request count — requests in
	// the queue channel or parked in the core's per-model queues. It is
	// the authoritative admission bound: admit reserves a slot (depth <
	// QueueDepth, the simulator's rule) before the queue send and
	// dispatch releases it, so concurrent submitters cannot
	// under-report the high-water mark and backlog memory stays bounded.
	depth        atomic.Int64
	highWater    atomic.Int64
	depthSum     atomic.Int64  // Σ depth sampled at each admission
	depthSamples atomic.Int64  //
	space        chan struct{} // freed-slot wakeup for Submits blocked in admit

	stats serverStats
}

// serverStats is the mutex-guarded counter block of a Server.
type serverStats struct {
	sync.Mutex
	submitted, rejected, served, failed, canceled uint64
	batches, batched                              uint64
	warmBatches, coldBatches                      uint64
	restages, replans                             uint64
	perModel                                      map[string]*ModelCounters
	perShard                                      []ShardUsage
}

// model returns the (lazily created) counters for a registered model;
// callers hold the stats mutex.
func (st *serverStats) model(name string) *ModelCounters {
	c := st.perModel[name]
	if c == nil {
		c = &ModelCounters{}
		st.perModel[name] = c
	}
	return c
}

// NewServer starts a server on the backend. The returned server is
// accepting requests; call Close to drain and stop it.
func NewServer(backend Backend, opts Options) (*Server, error) {
	sys := backend.System()
	o, err := opts.withDefaults(sys)
	if err != nil {
		return nil, err
	}
	registered := backend.Models()
	s := &Server{
		backend:     backend,
		opts:        o,
		slices:      sys.Config().Slices,
		groupSize:   o.GroupSize,
		queue:       make(chan *request, o.QueueDepth),
		freed:       make(chan struct{}, 1),
		names:       modelNames(registered),
		index:       make(map[string]int, len(registered)),
		closing:     make(chan struct{}),
		space:       make(chan struct{}, 1),
		batcherDone: make(chan struct{}),
		started:     time.Now(),
	}
	s.groupFreed = sync.NewCond(&s.coreMu)
	s.core = node.New[*request](o.coreConfig(registered), wallClock{s})
	for i, name := range s.names {
		s.index[name] = i
	}
	if o.Cache.Enabled() {
		if s.cache, err = NewCache(o.Cache); err != nil {
			return nil, err
		}
	}
	s.stats.perModel = make(map[string]*ModelCounters)
	s.stats.perShard = make([]ShardUsage, o.Replicas)
	for i := 0; i < o.Replicas; i++ {
		s.stats.perShard[i].Shard = shardFor(i, s.slices, s.groupSize)
	}
	// The tracer must attach before plan adoption: startup pre-stages
	// are part of the recorded lifecycle.
	if o.Trace != nil {
		s.tracer = o.Trace.Node(0, "neuralcache/serve (wall clock)", s.names,
			GroupLanes(s.slices, s.groupSize, o.Replicas), o.Cache.Enabled())
	}
	// Pre-stages release on their own goroutines, so adopt under the
	// core lock.
	s.coreMu.Lock()
	err = startPlan(s.core, backend, o)
	s.ctrl = s.core.Controller()
	s.coreMu.Unlock()
	if err != nil {
		return nil, err
	}
	go s.batcher()
	return s, nil
}

// wallClock is the Server's node.Clock: a restage sleeps out its reload
// on its own goroutine, then releases the group.
type wallClock struct{ s *Server }

func (c wallClock) Restage(g, mi, from int) error {
	s := c.s
	// A registered model always prices; were it not to, the group still
	// frees (after no wait) rather than stay claimed forever.
	cost, _ := s.backend.ReloadTime(s.names[mi], s.groupSize)
	s.noteRestage(g, mi, from, cost)
	s.execWG.Add(1)
	go func() {
		defer s.execWG.Done()
		time.Sleep(cost)
		s.release(g)
	}()
	return nil
}

func (c wallClock) Replanned(now time.Duration, drift float64, ops int) {
	s := c.s
	s.stats.Lock()
	s.stats.replans++
	nth := int(s.stats.replans)
	s.stats.Unlock()
	s.tracer.Replan(now, nth, drift, ops)
}

// release ends group g's batch or restage (chaining into a restage a
// re-plan queued on it) and wakes whoever waits for a free group.
func (s *Server) release(g int) {
	s.coreMu.Lock()
	_ = s.core.Release(g) // wallClock.Restage never fails
	s.coreMu.Unlock()
	s.groupFreed.Signal()
	select {
	case s.freed <- struct{}{}:
	default:
	}
}

// Plan returns the residency plan currently applied (the last
// controller re-plan, or Options.Plan), nil for reactive servers.
func (s *Server) Plan() *plan.Plan {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	return s.core.Plan()
}

// noteRestage counts one planner restage on a group, charging its
// reload into the group's busy time — the same accounting the
// simulator applies, so planned utilization reads identically on both
// drivers — and traces the staging span. mi is the model the restage
// stages, from the one it evicts (-1 when the group held nothing).
func (s *Server) noteRestage(id, mi, from int, cost time.Duration) {
	s.stats.Lock()
	if id >= 0 && id < len(s.stats.perShard) {
		s.stats.perShard[id].Restages++
		s.stats.perShard[id].Busy += cost
	}
	s.stats.restages++
	s.stats.Unlock()
	s.tracer.Restage(id, mi, from, time.Since(s.started), cost)
}

// Options returns the server's effective (defaulted) options.
func (s *Server) Options() Options { return s.opts }

// QueueDepth returns the current admitted-minus-dispatched request
// count — the live value behind Stats' high-water mark, cheap enough
// for debug endpoints and samplers to poll.
func (s *Server) QueueDepth() int { return int(s.depth.Load()) }

// BusyGroups returns how many replica groups are currently claimed
// (serving a batch or restaging weights).
func (s *Server) BusyGroups() int {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	return s.core.Busy()
}

// Controller returns the drift controller of a planned server with
// Options.Replan enabled, nil otherwise. Its read-only methods
// (Drift, Observed) feed debug endpoints and timeline samplers.
func (s *Server) Controller() *plan.Controller { return s.ctrl }

// Submit admits one request for the backend's default model and blocks
// until it is served or ctx is done. When the admission queue is full,
// Submit waits for space (backpressure); cancel ctx — or Close the
// server — to give up. A ctx that expires after admission abandons the
// wait but lets the request complete.
func (s *Server) Submit(ctx context.Context, in *neuralcache.Tensor) (*Response, error) {
	return s.SubmitModel(ctx, "", in)
}

// SubmitModel is Submit for a named registered model ("" = default).
func (s *Server) SubmitModel(ctx context.Context, model string, in *neuralcache.Tensor) (*Response, error) {
	ch, err := s.submit(ctx, model, in, true)
	if err != nil {
		return nil, err
	}
	select {
	case r := <-ch:
		return r, r.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TrySubmit admits one request for the backend's default model without
// blocking: when the admission queue is full it returns ErrQueueFull
// immediately (the open-loop rejection path). On success the response
// arrives on the returned channel. ctx is checked again at dispatch
// time: a request whose ctx expired while queued is dropped with its
// ctx error.
func (s *Server) TrySubmit(ctx context.Context, in *neuralcache.Tensor) (<-chan *Response, error) {
	return s.submit(ctx, "", in, false)
}

// TrySubmitModel is TrySubmit for a named registered model ("" = default).
func (s *Server) TrySubmitModel(ctx context.Context, model string, in *neuralcache.Tensor) (<-chan *Response, error) {
	return s.submit(ctx, model, in, false)
}

func (s *Server) submit(ctx context.Context, model string, in *neuralcache.Tensor, wait bool) (chan *Response, error) {
	m, err := s.backend.Lookup(model)
	if err != nil {
		return nil, err
	}
	name := m.Name()
	mi := s.index[name]
	if in == nil {
		if s.backend.RequiresInput() {
			return nil, fmt.Errorf("serve: %s backend requires an input tensor", s.backend.Name())
		}
	} else if err := m.CheckInput(in); err != nil {
		// Rejected at admission, a malformed input can never fail the
		// batchmates it would have ridden with.
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Register as an in-flight submitter under the read lock, then drop
	// the lock before the (possibly waiting) admission: Close must not
	// stall behind back-pressured submitters, and the queue send must
	// still never race close(s.queue) — Close waits for submitters to
	// drain after waking them via s.closing.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	s.submitters.Add(1)
	s.mu.RUnlock()
	defer s.submitters.Done()
	// Probe the front-cache before admission: a hit completes here — it
	// cannot be rejected by a full queue, never rides a batch and never
	// claims a replica group. Backends without input tensors have
	// nothing to key on and skip the cache entirely.
	if s.cache != nil && in != nil {
		enqueued := time.Now()
		if result, ok := s.cache.Lookup(name, in); ok {
			resp := &Response{
				ID:       s.nextID.Add(1),
				Model:    name,
				Result:   result,
				Shard:    NoShard,
				CacheHit: true,
				Latency:  time.Since(enqueued),
			}
			s.stats.Lock()
			s.stats.submitted++
			s.stats.served++
			mc := s.stats.model(name)
			mc.Served++
			mc.CacheHits++
			s.stats.Unlock()
			s.tracer.CacheHit(mi, time.Since(s.started))
			if s.ctrl != nil {
				s.ctrl.ObserveCacheHit(name, time.Since(s.started))
			}
			ch := make(chan *Response, 1)
			ch <- resp
			return ch, nil
		}
		s.stats.Lock()
		s.stats.model(name).CacheMisses++
		s.stats.Unlock()
	}
	if err := s.admit(ctx, wait, mi); err != nil {
		return nil, err
	}
	req := &request{
		id:       s.nextID.Add(1),
		model:    name,
		mi:       mi,
		input:    in,
		ctx:      ctx,
		enqueued: time.Now(),
		resp:     make(chan *Response, 1),
	}
	// The send cannot block: channel occupancy never exceeds the depth
	// counter, which admit just bounded by QueueDepth, the channel's
	// capacity.
	s.queue <- req
	s.stats.Lock()
	s.stats.submitted++
	s.stats.Unlock()
	return req.resp, nil
}

// admit reserves one slot of the bounded admission depth — the same
// depth >= QueueDepth rule the simulator applies — incrementing the
// counter before the queue send so concurrent submitters can never
// under-report the high-water mark. Without wait a full queue rejects
// with ErrQueueFull; with wait the caller blocks until a dispatch frees
// a slot, ctx is done, or the server closes.
func (s *Server) admit(ctx context.Context, wait bool, mi int) error {
	for {
		d := s.depth.Load()
		if d < int64(s.opts.QueueDepth) {
			if !s.depth.CompareAndSwap(d, d+1) {
				continue
			}
			d++
			for {
				hw := s.highWater.Load()
				if d <= hw || s.highWater.CompareAndSwap(hw, d) {
					break
				}
			}
			s.depthSum.Add(d)
			s.depthSamples.Add(1)
			if d < int64(s.opts.QueueDepth) {
				// Cascade the wakeup: one freed-slot token wakes one
				// waiter, so pass it on while slots remain.
				select {
				case s.space <- struct{}{}:
				default:
				}
			}
			return nil
		}
		if !wait {
			s.stats.Lock()
			s.stats.rejected++
			s.stats.model(s.names[mi]).Rejected++
			s.stats.Unlock()
			s.tracer.Reject(mi, time.Since(s.started))
			return ErrQueueFull
		}
		select {
		case <-s.space:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.closing:
			return ErrClosed
		}
	}
}

// batcher is the single goroutine feeding the core: it queues admitted
// requests per model and dispatches whatever the core's ready pick
// allows — a full batch, or one whose oldest request has lingered
// MaxLinger, onto a free group the model may claim, oldest head first.
// Between decisions it waits for the next admission, the next linger
// deadline or a freed group.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	deadline := time.Duration(-1)
	for {
		var timer *time.Timer
		var timerC <-chan time.Time
		if deadline >= 0 {
			timer = time.NewTimer(time.Until(s.started.Add(deadline)))
			timerC = timer.C
		}
		var r *request
		ok := true
		select {
		case r, ok = <-s.queue:
		case <-timerC:
		case <-s.freed:
		}
		if timer != nil {
			timer.Stop()
		}
		if !ok {
			s.flush()
			return
		}
		if r != nil {
			s.push(r)
		}
		if !s.drain() {
			s.flush()
			return
		}
		deadline = s.dispatchReady()
	}
}

// push queues one admitted request on the core.
func (s *Server) push(r *request) {
	s.coreMu.Lock()
	s.core.Push(r.mi, r.enqueued.Sub(s.started), r)
	s.coreMu.Unlock()
}

// drain moves every immediately available request into the core before
// any dispatch decision, so a backlog forms full batches instead of
// lingered singletons; it reports false once the queue is closed and
// empty.
func (s *Server) drain() bool {
	for {
		select {
		case r, ok := <-s.queue:
			if !ok {
				return false
			}
			s.push(r)
		default:
			return true
		}
	}
}

// dispatchReady dispatches every batch the core's ready pick allows and
// returns the next linger deadline (-1 for none).
func (s *Server) dispatchReady() time.Duration {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	for {
		now := time.Since(s.started)
		mi, deadline := s.core.Ready(now)
		if mi < 0 {
			return deadline
		}
		s.dispatch(mi, now)
	}
}

// flush dispatches everything still queued when the queue closes,
// oldest head first, waiting out busy groups, so Close drains instead
// of dropping.
func (s *Server) flush() {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	for s.core.Depth() > 0 {
		// At the end of time every head has lingered: the pick is the
		// oldest head among models with a free group.
		if mi, _ := s.core.Ready(math.MaxInt64); mi >= 0 {
			s.dispatch(mi, time.Since(s.started))
		} else {
			s.groupFreed.Wait()
		}
	}
}

// dispatch pops model mi's next batch, answers requests whose ctx
// expired while queued, claims a group for the rest and runs the
// controller step, then executes the batch on its own goroutine —
// charging the backend's reload when the group was not already staging
// the model. The caller holds coreMu.
func (s *Server) dispatch(mi int, now time.Duration) {
	model := s.names[mi]
	_, batch := s.core.Pop(mi)
	// The queue-depth counter drops here — not at the channel receive —
	// so requests parked in the core still count as queued, matching
	// the simulator's accounting.
	s.depth.Add(-int64(len(batch)))
	select {
	case s.space <- struct{}{}: // wake one Submit blocked in admit
	default:
	}
	live := make([]*request, 0, len(batch))
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			r.resp <- &Response{
				ID:     r.id,
				Model:  r.model,
				Err:    r.ctx.Err(),
				Shard:  NoShard,
				Queued: time.Since(r.enqueued),
			}
			s.stats.Lock()
			s.stats.canceled++
			s.stats.model(r.model).Canceled++
			s.stats.Unlock()
			s.tracer.Cancel(r.mi, time.Since(s.started))
			continue
		}
		live = append(live, r)
	}
	clear(batch) // the core's queue must not keep served requests alive
	if len(live) == 0 {
		return
	}
	id, warm := s.core.Claim(mi)
	// An invalid re-plan changes nothing and the old pinned set keeps
	// serving; the controller only plans registered models onto
	// existing groups, so this guards a boundary rather than a path.
	_ = s.core.Step(mi, len(live), now)
	dispatched := time.Now()
	s.execWG.Add(1)
	go func() {
		defer s.execWG.Done()
		inputs := make([]*neuralcache.Tensor, len(live))
		for i, r := range live {
			inputs[i] = r.input
		}
		// The batch runs under the server's lifetime, not any one
		// request's ctx: a replica group shares one staged weight set, so
		// a single submitter's cancellation must not fail its batchmates.
		results, err := s.backend.Execute(context.Background(), model, inputs, !warm, s.groupSize)
		done := time.Now()
		// Update counters before delivering responses: a caller that has
		// drained its response channels must see this batch in Stats().
		s.stats.Lock()
		s.stats.batches++
		seq := int(s.stats.batches)
		s.stats.batched += uint64(len(live))
		mc := s.stats.model(model)
		mc.Batches++
		if warm {
			s.stats.warmBatches++
			mc.WarmBatches++
		} else {
			s.stats.coldBatches++
			mc.ColdBatches++
		}
		if err != nil {
			s.stats.failed += uint64(len(live))
			mc.Failed += uint64(len(live))
		} else {
			s.stats.served += uint64(len(live))
			mc.Served += uint64(len(live))
		}
		u := &s.stats.perShard[id]
		u.Batches++
		u.Requests += len(live)
		u.Busy += done.Sub(dispatched)
		if !warm {
			u.Reloads++
		}
		s.stats.Unlock()
		if s.tracer != nil {
			start := dispatched.Sub(s.started)
			for _, r := range live {
				s.tracer.Queued(mi, r.enqueued.Sub(s.started), start, seq)
			}
			// The wall clock cannot split the measured span into reload
			// and service; charge the modeled §IV-E reload on cold
			// dispatches, clamped to what actually elapsed.
			span := done.Sub(dispatched)
			var reload time.Duration
			if !warm {
				if rel, err := s.backend.ReloadTime(model, s.groupSize); err == nil {
					reload = min(rel, span)
				}
			}
			s.tracer.Batch(id, mi, len(live), !warm, seq, start, span-reload, reload)
		}
		for i, r := range live {
			resp := &Response{
				ID:        r.id,
				Model:     model,
				Shard:     shardFor(id, s.slices, s.groupSize),
				BatchSize: len(live),
				Cold:      !warm,
				Queued:    dispatched.Sub(r.enqueued),
				Latency:   done.Sub(r.enqueued),
				Err:       err,
			}
			if err == nil && results != nil {
				resp.Result = results[i]
			}
			if err == nil && s.cache != nil && r.input != nil {
				// Miss fill: memoize the served output under its input so
				// the next identical submission hits at admission. Failed
				// batches fill nothing — a hit must always replay a result
				// that was actually served.
				s.cache.Insert(model, r.input, resp.Result)
			}
			r.resp <- resp
		}
		s.release(id)
	}()
}

// Close stops admission, wakes Submits blocked on a full queue (they
// return ErrClosed), drains the queue, waits for in-flight batches and
// returns. Closing twice returns ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	close(s.closing)
	s.mu.Unlock()
	// Wait out submitters that passed the closed check before closing
	// the queue channel: they either complete their send or bail on
	// s.closing, so close(s.queue) can never race a send.
	s.submitters.Wait()
	close(s.queue)
	<-s.batcherDone
	s.execWG.Wait()
	return nil
}

// ModelCounters aggregates one registered model's admission and dispatch
// accounting on a Server.
type ModelCounters struct {
	Served, Failed, Canceled uint64
	Rejected                 uint64
	Batches                  uint64
	WarmBatches, ColdBatches uint64
	// CacheHits were served from the front-cache at admission (also
	// counted in Served); CacheMisses probed and went on through the
	// normal path. Both stay zero when Options.Cache is off.
	CacheHits, CacheMisses uint64
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Submitted, Rejected uint64
	Served, Failed      uint64
	Canceled            uint64
	Batches             uint64
	MeanBatch           float64
	// WarmBatches and ColdBatches split dispatches by whether the
	// replica already staged the batch's model; cold ones paid the
	// §IV-E weight reload.
	WarmBatches, ColdBatches uint64
	// Restages counts planner-driven weight stagings (startup
	// pre-stages plus controller rebalances); Replans counts applied
	// controller re-plans. Both stay zero on reactive servers.
	Restages, Replans uint64
	// Front-cache counters (Options.Cache; all zero when off).
	// CacheHits completed at admission without touching a replica
	// group, CacheMisses probed and continued, CacheInserts filled on
	// miss completion and CacheEvictions are LRU victims beyond
	// capacity.
	CacheHits, CacheMisses uint64
	CacheInserts           uint64
	CacheEvictions         uint64
	// QueueHighWater is the maximum admitted-minus-dispatched depth
	// (queued in the channel plus parked in the batcher), tracked
	// atomically at every admission; it never exceeds QueueDepth, and
	// MeanQueueDepth is the mean of the depth sampled at each admission,
	// so QueueHighWater ≥ ⌈MeanQueueDepth⌉ always.
	QueueHighWater int
	MeanQueueDepth float64
	// DepthSum and DepthSamples are the raw accumulators behind
	// MeanQueueDepth (Σ depth sampled at each admission, and the sample
	// count), exposed so windowed consumers like LoadTest can difference
	// two snapshots. QueueHighWater has no windowed form: a max cannot
	// be differenced, so on a reused server it spans the whole lifetime.
	DepthSum     int64
	DepthSamples int64
	Uptime       time.Duration
	// Utilization is the mean busy fraction across replicas since the
	// server started.
	Utilization float64
	PerShard    []ShardUsage
	// PerModel maps registered model names to their counters; only
	// models that saw traffic appear.
	PerModel map[string]ModelCounters
}

// Stats snapshots the server's occupancy and admission counters.
func (s *Server) Stats() Stats {
	up := time.Since(s.started)
	s.stats.Lock()
	defer s.stats.Unlock()
	out := Stats{
		Submitted:      s.stats.submitted,
		Rejected:       s.stats.rejected,
		Served:         s.stats.served,
		Failed:         s.stats.failed,
		Canceled:       s.stats.canceled,
		Batches:        s.stats.batches,
		WarmBatches:    s.stats.warmBatches,
		ColdBatches:    s.stats.coldBatches,
		Restages:       s.stats.restages,
		Replans:        s.stats.replans,
		QueueHighWater: int(s.highWater.Load()),
		Uptime:         up,
		PerShard:       append([]ShardUsage(nil), s.stats.perShard...),
		PerModel:       make(map[string]ModelCounters, len(s.stats.perModel)),
	}
	out.DepthSum = s.depthSum.Load()
	out.DepthSamples = s.depthSamples.Load()
	if out.DepthSamples > 0 {
		out.MeanQueueDepth = float64(out.DepthSum) / float64(out.DepthSamples)
	}
	for name, c := range s.stats.perModel {
		out.PerModel[name] = *c
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		out.CacheHits = uint64(cs.Hits)
		out.CacheMisses = uint64(cs.Misses)
		out.CacheInserts = uint64(cs.Inserts)
		out.CacheEvictions = uint64(cs.Evictions)
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(s.stats.batched) / float64(out.Batches)
	}
	var busy time.Duration
	for i := range out.PerShard {
		busy += out.PerShard[i].Busy
		if up > 0 {
			out.PerShard[i].Utilization = float64(out.PerShard[i].Busy) / float64(up)
		}
	}
	if up > 0 && len(out.PerShard) > 0 {
		out.Utilization = float64(busy) / float64(up*time.Duration(len(out.PerShard)))
	}
	return out
}
