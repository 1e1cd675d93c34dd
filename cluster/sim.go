package cluster

import (
	"container/heap"
	"fmt"
	"time"

	"neuralcache"
	"neuralcache/internal/node"
	"neuralcache/obs"
	"neuralcache/plan"
	"neuralcache/serve"
)

// Event kinds of the cluster-level discrete-event simulator:
// serve.Simulate's, plus the lifecycle transition.
const (
	evArrival = iota
	evCompletion
	evLinger
	evRestage
	evLifecycle
)

// event is one scheduled state change on the fleet's virtual clock.
// Completion and restage events carry the epoch of the node state that
// scheduled them: a kill bumps the node's epoch, so events from the
// dead incarnation are recognized at pop time — their requests are
// counted lost instead of served, and no group state is touched.
type event struct {
	at    time.Duration
	seq   uint64 // FIFO tiebreak among equal times
	kind  int
	node  int
	epoch int
	model int
	shard int
	// arrivals are the batch's admission times (completion events).
	arrivals []time.Duration
	change   EventKind
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

// nodeState is a node's lifecycle position.
type nodeState int

const (
	stateLive nodeState = iota
	stateDraining
	stateDown
)

func (st nodeState) String() string {
	switch st {
	case stateLive:
		return "live"
	case stateDraining:
		return "draining"
	}
	return "down"
}

// simNode is one node: its node core — the same admission queue,
// per-model micro-batching and warm-first / plan-aware group selection
// serve.Simulate and serve.Server drive — plus lifecycle state and
// accounting. It is the core's Clock on the fleet's virtual clock.
type simNode struct {
	s       *sim
	index   int
	base    int // the node's first group in the fleet timeline's group order
	spec    NodeSpec
	sys     *neuralcache.System
	backend serve.Backend
	groups  int

	state nodeState
	epoch int

	core       *node.Core[struct{}]
	lanes      *obs.Node // the node's trace process; nil when tracing is off
	maxDepth   int
	lastLinger time.Duration

	routed, served, rejected, lost int
	batches, batched               int
	warm, cold, restages, replans  int
	servedPerModel                 []int
	busy                           time.Duration
	latencies                      []time.Duration
}

// modelStats is one model's fleet-level accounting.
type modelStats struct {
	name                            string
	offered, served, rejected, lost int
	warm, cold                      int
	servedBy                        []bool // nodes that dispatched it
	latencies                       []time.Duration
}

// sim is the state of one cluster.Simulate run.
type sim struct {
	opts   Options
	load   Load
	router Router

	models []*neuralcache.Model
	names  []string
	index  map[string]int

	nodes []*simNode

	events eventHeap
	seq    uint64
	now    time.Duration

	gen      *node.Arrivals
	observer *mixObserver
	trace    *obs.Trace
	timeline *obs.Sampler

	perModel []*modelStats

	offered, served              int
	rejectedFull, rejectedNoNode int
	lost                         int
	depth, maxDepth              int
	firstArrival, lastCompletion time.Duration
	latencies                    []time.Duration

	initialMix []plan.Share
	planRate   float64
}

// Simulate runs the fleet against a generated load on a deterministic
// virtual clock: no goroutines, no wall-clock sleeps, service and
// reload times from each node's analytic backend. The same models,
// options and load produce an identical Report — byte-identical JSON —
// on every run and at every functional-engine worker count (analytic
// pricing never executes the engine).
func Simulate(models []*neuralcache.Model, opts Options, load Load) (*Report, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := load.validate(); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("cluster: no models")
	}
	s := &sim{
		opts:   o,
		load:   load,
		router: o.Router,
		models: models,
		names:  make([]string, len(models)),
		index:  make(map[string]int, len(models)),
		gen:    load.spec().Arrivals(),
		trace:  o.Trace,
	}
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("cluster: model %d is nil", i)
		}
		if _, dup := s.index[m.Name()]; dup {
			return nil, fmt.Errorf("cluster: model %s registered twice", m.Name())
		}
		s.names[i] = m.Name()
		s.index[m.Name()] = i
		s.perModel = append(s.perModel, &modelStats{name: m.Name(), servedBy: make([]bool, len(o.Nodes))})
	}
	// Resolve the whole mix timeline up front: unknown models fail fast.
	for _, name := range load.models() {
		if _, err := s.resolve(name); err != nil {
			return nil, err
		}
	}
	if s.trace != nil {
		// The front door is process 0, with one router lane.
		s.trace.Emit(obs.Event{Name: "process_name", Phase: obs.PhaseMetadata, Args: &obs.Args{Name: "cluster"}})
		s.trace.Emit(obs.Event{Name: "thread_name", Phase: obs.PhaseMetadata, Args: &obs.Args{Name: "router"}})
	}
	groups := 0
	for _, spec := range o.Nodes {
		sys, err := spec.system()
		if err != nil {
			return nil, err
		}
		n := &simNode{
			s:              s,
			index:          len(s.nodes),
			base:           groups,
			spec:           spec,
			sys:            sys,
			backend:        serve.NewAnalyticBackend(sys, models[0], models[1:]...),
			groups:         spec.Replicas,
			servedPerModel: make([]int, len(models)),
			lastLinger:     -1,
		}
		n.core = node.New[struct{}](node.Config{
			Models: s.names, Groups: spec.Replicas,
			MaxBatch: spec.MaxBatch, MaxLinger: spec.MaxLinger,
		}, n)
		if s.trace != nil {
			n.lanes = s.trace.Node(n.index+1, spec.Name, s.names,
				serve.GroupLanes(spec.Slices, spec.GroupSize, spec.Replicas), false)
		}
		s.nodes = append(s.nodes, n)
		groups += spec.Replicas
	}
	s.observer = newMixObserver(o.ObserverHalfLife, len(models))
	if o.TimelineInterval > 0 {
		s.timeline = obs.NewSampler(o.TimelineInterval, groups, s.totals)
	}
	// The initial planning mix: the load's first epoch, with the rate
	// split evenly across the starting fleet. Per-node controllers take
	// over from here, each chasing the traffic the router sends it.
	s.initialMix = sharesFromMix(load.Mix, s.names[0])
	if len(s.initialMix) == 0 {
		s.initialMix = []plan.Share{{Model: s.names[0], Weight: 1}}
	}
	s.planRate = load.Rate / float64(len(s.nodes))
	for _, n := range s.nodes {
		if n.spec.Plan {
			if err := s.planNode(n, s.initialMix); err != nil {
				return nil, err
			}
		}
	}
	// Lifecycle events enter the heap before the first arrival, so a
	// transition scheduled at an arrival's exact instant fires first.
	for _, ev := range o.Events {
		s.push(&event{at: ev.At, kind: evLifecycle, node: ev.Node, change: ev.Kind})
	}
	if err := s.scheduleArrival(); err != nil {
		return nil, err
	}
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		s.timeline.Advance(e.at)
		s.now = e.at
		switch e.kind {
		case evArrival:
			if err := s.onArrival(e); err != nil {
				return nil, err
			}
		case evCompletion:
			if err := s.onCompletion(e); err != nil {
				return nil, err
			}
		case evRestage:
			if n := s.nodes[e.node]; e.epoch == n.epoch {
				if err := n.core.Release(e.shard); err != nil {
					return nil, err
				}
			}
		case evLifecycle:
			if err := s.onLifecycle(e); err != nil {
				return nil, err
			}
		}
		if err := s.dispatchAll(); err != nil {
			return nil, err
		}
	}
	return s.report()
}

// resolve maps a load-mix model name ("" = the default, index 0) to
// its fleet registry index.
func (s *sim) resolve(name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	mi, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("cluster: model %q not registered", name)
	}
	return mi, nil
}

// scheduleArrival pushes the next arrival, if any; the fleet ignores
// the generator's reuse keys.
func (s *sim) scheduleArrival() error {
	at, model, _, ok := s.gen.Next()
	if !ok {
		return nil
	}
	mi, err := s.resolve(model)
	if err != nil {
		return err
	}
	s.push(&event{at: at, kind: evArrival, model: mi})
	return nil
}

func (s *sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// planNode computes a residency plan for the node from the given
// shares and starts its core on it, pre-staging every pinned group.
// Zero-weight shares are floored to a tiny epsilon so every registered
// model keeps a warm set (the plan has no overflow pool; an unpinned
// model's requests could never dispatch) — the same rationale as
// plan.Rebalance's floor.
func (s *sim) planNode(n *simNode, shares []plan.Share) error {
	floored := make([]plan.Share, len(shares))
	copy(floored, shares)
	for i := range floored {
		if floored[i].Weight == 0 {
			floored[i].Weight = 1e-9
		}
	}
	p, err := plan.Compute(n.sys, s.models, floored, plan.Options{
		GroupSize:  n.spec.GroupSize,
		MaxBatch:   n.spec.MaxBatch,
		RatePerSec: s.planRate,
	})
	if err != nil {
		return fmt.Errorf("cluster: node %s: %w", n.spec.Name, err)
	}
	var ctrl *plan.Controller
	if n.spec.Replan.Enabled() {
		if ctrl, err = plan.NewController(n.sys, s.models, p, n.spec.Replan); err != nil {
			return fmt.Errorf("cluster: node %s: %w", n.spec.Name, err)
		}
	}
	if err := n.core.Start(p, ctrl); err != nil {
		return fmt.Errorf("cluster: node %s: %w", n.spec.Name, err)
	}
	return nil
}

// Restage implements node.Clock: the group streams model mi's weights
// for the reload time, released by an evRestage of this incarnation.
func (n *simNode) Restage(g, mi, from int) error {
	s := n.s
	rel, err := n.backend.ReloadTime(s.names[mi], n.spec.GroupSize)
	if err != nil {
		return err
	}
	s.push(&event{at: s.now + rel, kind: evRestage, node: n.index, epoch: n.epoch, shard: g})
	n.restages++
	n.busy += rel
	n.lanes.Restage(g, mi, from, s.now, rel)
	s.timeline.Charge(n.base+g, s.now, rel)
	return nil
}

// Replanned implements node.Clock.
func (n *simNode) Replanned(now time.Duration, drift float64, ops int) {
	n.replans++
	n.lanes.Replan(now, n.replans, drift, ops)
}

// totals reports the fleet's state to the timeline sampler: admitted
// but undispatched requests now, and every counter as a run total.
func (s *sim) totals() obs.TimelinePoint {
	p := obs.TimelinePoint{
		QueueDepth: s.depth,
		Offered:    s.offered,
		Served:     s.served,
		Rejected:   s.rejectedFull + s.rejectedNoNode,
	}
	for _, n := range s.nodes {
		p.WarmDispatches += n.warm
		p.ColdDispatches += n.cold
		p.Restages += n.restages
		p.Replans += n.replans
	}
	return p
}

// views snapshots every node for a routing decision.
func (s *sim) views() []NodeView {
	views := make([]NodeView, len(s.nodes))
	for i, n := range s.nodes {
		views[i] = NodeView{
			Index:      i,
			Name:       n.spec.Name,
			Accepting:  n.state == stateLive,
			QueueDepth: n.core.Depth(),
			QueueLimit: n.spec.QueueDepth,
			BusyGroups: n.core.Busy(),
			Groups:     n.groups,
		}
	}
	return views
}

func (s *sim) onArrival(e *event) error {
	mi := e.model
	st := s.perModel[mi]
	s.offered++
	st.offered++
	if s.offered == 1 {
		s.firstArrival = s.now
	}
	s.observer.observe(mi, s.now)
	views := s.views()
	pick := s.router.Pick(s.names[mi], views)
	switch {
	case pick < 0 || pick >= len(s.nodes) || !views[pick].Accepting:
		// No accepting node (or a router bug routed to one that isn't):
		// the front door rejects.
		s.rejectedNoNode++
		st.rejected++
		if s.trace != nil {
			s.trace.Emit(obs.Event{Name: "reject:no-node", Cat: "admission", Phase: obs.PhaseInstant,
				Scope: "t", Ts: obs.Micros(s.now), Cname: "terrible", Args: &obs.Args{Model: s.names[mi]}})
		}
	default:
		n := s.nodes[pick]
		n.routed++
		if n.core.Depth() >= n.spec.QueueDepth {
			s.rejectedFull++
			n.rejected++
			st.rejected++
			n.lanes.Reject(mi, s.now)
			break
		}
		n.core.Push(mi, s.now, struct{}{})
		n.maxDepth = max(n.maxDepth, n.core.Depth())
		s.depth++
		if s.depth > s.maxDepth {
			s.maxDepth = s.depth
		}
	}
	return s.scheduleArrival()
}

func (s *sim) onCompletion(e *event) error {
	n := s.nodes[e.node]
	if e.epoch != n.epoch {
		// The batch was in flight when its node was killed: the node's
		// group state was reset, the requests are lost.
		k := len(e.arrivals)
		s.lost += k
		n.lost += k
		s.perModel[e.model].lost += k
		return nil
	}
	if err := n.core.Release(e.shard); err != nil {
		return err
	}
	st := s.perModel[e.model]
	k := len(e.arrivals)
	s.served += k
	n.served += k
	st.served += k
	n.servedPerModel[e.model] += k
	if s.now > s.lastCompletion {
		s.lastCompletion = s.now
	}
	for _, at := range e.arrivals {
		lat := s.now - at
		s.latencies = append(s.latencies, lat)
		n.latencies = append(n.latencies, lat)
		st.latencies = append(st.latencies, lat)
	}
	return nil
}

func (s *sim) onLifecycle(e *event) error {
	n := s.nodes[e.node]
	switch e.change {
	case KillNode:
		if n.state == stateDown {
			return fmt.Errorf("cluster: kill of down node %s at %v", n.spec.Name, s.now)
		}
		n.lanes.Mark(KillNode.String(), "lifecycle", "terrible", s.now)
		// Queued requests die with the node; in-flight batches are
		// counted lost when their stale-epoch completions pop.
		for mi := range s.names {
			if l := n.core.Len(mi); l > 0 {
				s.lost += l
				n.lost += l
				s.perModel[mi].lost += l
			}
		}
		s.depth -= n.core.Depth()
		for g := 0; g < n.groups; g++ {
			s.timeline.Cut(n.base+g, s.now)
		}
		n.core.Reset()
		n.epoch++
		n.state = stateDown
		n.lastLinger = -1
	case DrainNode:
		if n.state != stateLive {
			return fmt.Errorf("cluster: drain of %s node %s at %v", n.state, n.spec.Name, s.now)
		}
		n.lanes.Mark(DrainNode.String(), "lifecycle", "", s.now)
		n.state = stateDraining
	case JoinNode:
		switch n.state {
		case stateLive:
			return fmt.Errorf("cluster: join of live node %s at %v", n.spec.Name, s.now)
		case stateDraining:
			// Rolling-restart rejoin: the node never lost its weights,
			// it comes back warm.
			n.state = stateLive
		case stateDown:
			// Cold rejoin: a planned node warms up against the traffic
			// the cluster observes right now, not the launch mix.
			n.state = stateLive
			if n.spec.Plan {
				shares := s.observer.shares(s.names)
				if shares == nil {
					shares = s.initialMix
				}
				if err := s.planNode(n, shares); err != nil {
					return err
				}
			}
		}
		n.lanes.Mark(JoinNode.String(), "lifecycle", "", s.now)
	}
	return nil
}

// dispatchAll applies each non-down node's micro-batching policy;
// draining nodes keep dispatching their queued work.
func (s *sim) dispatchAll() error {
	for _, n := range s.nodes {
		if n.state == stateDown {
			continue
		}
		if err := s.dispatchReady(n); err != nil {
			return err
		}
	}
	return nil
}

// dispatchReady dispatches every batch the node core's ready pick allows
// now; when nothing is ready it schedules the earliest linger deadline.
func (s *sim) dispatchReady(n *simNode) error {
	for {
		mi, deadline := n.core.Ready(s.now)
		if mi < 0 {
			if deadline >= 0 && deadline != n.lastLinger {
				s.push(&event{at: deadline, kind: evLinger, node: n.index})
				n.lastLinger = deadline
			}
			return nil
		}
		if err := s.dispatchBatch(n, mi); err != nil {
			return err
		}
	}
}

// dispatchBatch pops one batch of the model onto the group the node core
// claims, schedules its completion and runs the controller step.
func (s *sim) dispatchBatch(n *simNode, mi int) error {
	at, _ := n.core.Pop(mi)
	shard, warmHit := n.core.Claim(mi)
	take := len(at)
	batch := append([]time.Duration(nil), at...)
	s.depth -= take
	name := s.names[mi]
	st, err := n.backend.ServiceTime(name, take, n.spec.GroupSize)
	if err != nil {
		return err
	}
	var rel time.Duration
	if !warmHit {
		if rel, err = n.backend.ReloadTime(name, n.spec.GroupSize); err != nil {
			return err
		}
	}
	occupancy := st + rel
	s.push(&event{at: s.now + occupancy, kind: evCompletion, node: n.index, epoch: n.epoch, shard: shard, model: mi, arrivals: batch})
	n.batches++
	n.batched += take
	ms := s.perModel[mi]
	ms.servedBy[n.index] = true
	if warmHit {
		n.warm++
		ms.warm++
	} else {
		n.cold++
		ms.cold++
	}
	n.busy += occupancy
	s.timeline.Charge(n.base+shard, s.now, occupancy)
	if n.lanes != nil {
		for _, at := range batch {
			n.lanes.Queued(mi, at, s.now, n.batches)
		}
		n.lanes.Batch(shard, mi, take, !warmHit, n.batches, s.now, st, rel)
	}
	return n.core.Step(mi, take, s.now)
}
