// Package node is the clock-agnostic scheduling core of one Neural
// Cache serving node, shared by every driver: serve.Simulate drives one
// Core on its virtual-clock event heap, cluster.Simulate one Core per
// fleet node under its heap, and serve.Server one Core under a mutex on
// the wall clock. The core decides — which model's batch dispatches,
// onto which replica group, warm or cold, and which groups restage when
// the residency plan changes — and the driver keeps time: it prices
// service and reload, schedules completions and calls Release when they
// elapse. Because every driver runs this one policy, they agree on each
// decision by construction.
//
// The package also holds the one generated arrival process (Load): mix
// validation and draw, mix and rate epochs, closed-loop think times and
// Zipf reuse keys.
package node

import (
	"fmt"
	"time"

	"neuralcache/plan"
)

// Clock is the driver side of a Core: the core calls it when a decision
// needs time to pass or must be recorded.
type Clock interface {
	// Restage starts streaming model mi's weights onto group g, which the
	// core has already claimed and marked staged with mi; from is the
	// model the group held (-1 none). The driver charges the §IV-E reload
	// on its clock and calls Core.Release(g) once it has elapsed.
	Restage(g, mi, from int) error
	// Replanned reports a controller re-plan at now, before any restage
	// it causes starts: drift is the mix distance that triggered it, ops
	// its restage count.
	Replanned(now time.Duration, drift float64, ops int)
}

// Config sizes a Core.
type Config struct {
	// Models are the registered model names; a model's index here is its
	// key everywhere in the core.
	Models []string
	// Groups is the number of replica groups scheduled on.
	Groups int
	// MaxBatch caps a batch; MaxLinger is how long a partial batch's
	// oldest request waits for a fuller one (0 dispatches at once).
	MaxBatch  int
	MaxLinger time.Duration
}

// Core is one node's scheduling state: per-model FIFO queues of
// admitted requests carrying driver payloads T, and the replica groups'
// free, staged and pinned state. It is not safe for concurrent use.
type Core[T any] struct {
	cfg   Config
	clock Clock
	index map[string]int

	free      []bool
	staged    []int // model staged per group; -1 = never staged
	pin       []int // pinned model per group, -1 = overflow; nil = no plan
	pending   []int // restage waiting for a busy group; -1 = none
	freeCount int

	queues []queue[T]
	depth  int

	plan *plan.Plan
	ctrl *plan.Controller
}

// queue is one model's admitted, undispatched requests in arrival
// order: admission times and payloads, consumed from head.
type queue[T any] struct {
	at    []time.Duration
	items []T
	head  int
}

// New returns a core with every group free and unstaged, scheduling
// reactively until Start adopts a plan.
func New[T any](cfg Config, clock Clock) *Core[T] {
	c := &Core[T]{
		cfg:     cfg,
		clock:   clock,
		index:   make(map[string]int, len(cfg.Models)),
		free:    make([]bool, cfg.Groups),
		staged:  make([]int, cfg.Groups),
		pending: make([]int, cfg.Groups),
		queues:  make([]queue[T], len(cfg.Models)),
	}
	for i, name := range cfg.Models {
		c.index[name] = i
	}
	c.Reset()
	return c
}

// Reset returns the core to its initial state — every group free and
// unstaged, no plan, no controller, empty queues — the way a node that
// lost its state (a killed fleet node) comes back.
func (c *Core[T]) Reset() {
	for g := range c.free {
		c.free[g], c.staged[g], c.pending[g] = true, -1, -1
	}
	c.freeCount = len(c.free)
	c.pin, c.plan, c.ctrl = nil, nil, nil
	clear(c.queues)
	c.depth = 0
}

// Depth is the number of queued requests across all models.
func (c *Core[T]) Depth() int { return c.depth }

// Len is model mi's queued request count.
func (c *Core[T]) Len(mi int) int { return len(c.queues[mi].at) - c.queues[mi].head }

// Busy is the number of claimed groups (serving a batch or restaging).
func (c *Core[T]) Busy() int { return len(c.free) - c.freeCount }

// Plan is the residency plan in force (nil when reactive).
func (c *Core[T]) Plan() *plan.Plan { return c.plan }

// Controller is the drift controller (nil when none).
func (c *Core[T]) Controller() *plan.Controller { return c.ctrl }

// Push queues a request of model mi admitted at time at.
func (c *Core[T]) Push(mi int, at time.Duration, item T) {
	q := &c.queues[mi]
	if q.head > 4096 && q.head > len(q.at)/2 {
		// Compact, then clear the vacated tail: it still holds copies of
		// the moved items, which would outlive the driver clearing them
		// at their new positions once popped.
		n := len(q.at) - q.head
		q.at = append(q.at[:0], q.at[q.head:]...)
		copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.at = append(q.at, at)
	q.items = append(q.items, item)
	c.depth++
}

// Ready picks the model whose batch dispatches at now. A model is ready
// when it holds a full batch or its oldest request has lingered
// MaxLinger, and eligible when a group it may claim is free; the oldest
// eligible head goes first, ties to registry order. mi is -1 when no
// model qualifies; deadline is the earliest linger deadline still to
// come (-1 when none, and whenever every group is busy — the next
// Release retries anyway).
func (c *Core[T]) Ready(now time.Duration) (mi int, deadline time.Duration) {
	mi, deadline = -1, -1
	if c.depth == 0 || c.freeCount == 0 {
		return mi, deadline
	}
	var best time.Duration
	for i := range c.queues {
		q := &c.queues[i]
		n := len(q.at) - q.head
		if n == 0 {
			continue
		}
		head := q.at[q.head]
		if n < c.cfg.MaxBatch && now < head+c.cfg.MaxLinger {
			if dl := head + c.cfg.MaxLinger; deadline < 0 || dl < deadline {
				deadline = dl
			}
			continue
		}
		if mi >= 0 && head >= best {
			continue
		}
		// Without a plan any free group serves; with one, a model whose
		// pools are busy is skipped so it cannot block the others.
		if c.pin != nil {
			if g, _ := c.pickPlanned(i); g < 0 {
				continue
			}
		}
		mi, best = i, head
	}
	return mi, deadline
}

// Pop removes model mi's next batch — its up to MaxBatch oldest
// requests — and returns their admission times and payloads. Both
// slices alias the queue and stay valid until the next Push; a driver
// whose payloads hold pointers clears the items once it has copied
// them, so the queue keeps nothing alive.
func (c *Core[T]) Pop(mi int) ([]time.Duration, []T) {
	q := &c.queues[mi]
	n := min(len(q.at)-q.head, c.cfg.MaxBatch)
	at, items := q.at[q.head:q.head+n], q.items[q.head:q.head+n]
	q.head += n
	c.depth -= n
	if q.head == len(q.at) {
		q.at, q.items, q.head = q.at[:0], q.items[:0], 0
	}
	return at, items
}

// Claim takes the best free group for model mi — warm-first without a
// plan, plan-aware with one — and reports whether it already staged mi.
// A cold claim stages mi; the driver charges the reload with the batch.
// g is -1 when no group mi may claim is free.
func (c *Core[T]) Claim(mi int) (g int, warm bool) {
	if c.pin == nil {
		g, warm = c.pickWarm(mi)
	} else {
		g, warm = c.pickPlanned(mi)
	}
	if g < 0 {
		return -1, false
	}
	c.free[g] = false
	c.freeCount--
	if !warm {
		c.staged[g] = mi
	}
	return g, warm
}

// pickWarm is the reactive policy: the lowest free group already
// staging mi (warm), else the lowest never-staged one, else the lowest
// free one (evicting its model).
func (c *Core[T]) pickWarm(mi int) (g int, warm bool) {
	free, empty := -1, -1
	for i, f := range c.free {
		if !f {
			continue
		}
		if c.staged[i] == mi {
			return i, true
		}
		if c.staged[i] < 0 && empty < 0 {
			empty = i
		}
		if free < 0 {
			free = i
		}
	}
	if empty >= 0 {
		return empty, false
	}
	return free, false
}

// pickPlanned is the plan-aware policy: mi may claim its own pinned
// groups and the overflow pool, never another model's pinned groups.
// Preference: warm pinned > warm overflow > cold pinned > never-staged
// overflow > any overflow (evict). -1 when none is free — a free but
// foreign group does not count.
func (c *Core[T]) pickPlanned(mi int) (g int, warm bool) {
	coldPinned, overWarm, overEmpty, overAny := -1, -1, -1, -1
	for i, f := range c.free {
		if !f {
			continue
		}
		switch c.pin[i] {
		case mi:
			if c.staged[i] == mi {
				return i, true
			}
			if coldPinned < 0 {
				coldPinned = i
			}
		case -1:
			switch {
			case c.staged[i] == mi:
				if overWarm < 0 {
					overWarm = i
				}
			case c.staged[i] < 0:
				if overEmpty < 0 {
					overEmpty = i
				}
			}
			if overAny < 0 {
				overAny = i
			}
		}
	}
	if overWarm >= 0 {
		return overWarm, true
	}
	for _, g := range [...]int{coldPinned, overEmpty, overAny} {
		if g >= 0 {
			return g, false
		}
	}
	return -1, false
}

// Release ends group g's batch or restage: the group frees, unless a
// re-plan queued a restage on it meanwhile, which then starts instead.
func (c *Core[T]) Release(g int) error {
	if mi := c.pending[g]; mi >= 0 {
		c.pending[g] = -1
		if c.staged[g] != mi {
			return c.stage(g, mi)
		}
	}
	c.free[g] = true
	c.freeCount++
	return nil
}

// stage claims group g if it is free and starts restaging model mi onto
// it.
func (c *Core[T]) stage(g, mi int) error {
	if c.free[g] {
		c.free[g] = false
		c.freeCount--
	}
	from := c.staged[g]
	c.staged[g] = mi
	return c.clock.Restage(g, mi, from)
}

// Start adopts residency plan p: claims turn plan-aware, every pinned
// group restages its model, and ctrl (nil for none) re-plans as the
// served mix drifts.
func (c *Core[T]) Start(p *plan.Plan, ctrl *plan.Controller) error {
	pin, err := c.pins(p)
	if err != nil {
		return err
	}
	c.pin, c.plan, c.ctrl = pin, p, ctrl
	for g, mi := range pin {
		if mi >= 0 {
			if err := c.stage(g, mi); err != nil {
				return err
			}
		}
	}
	return nil
}

// Step is the controller step that follows a claim: it feeds the
// controller the n requests of model mi dispatched at now and applies
// any re-plan it decides. The pinned map switches at once; each restage
// starts on its group if free, else when the group's batch ends. An
// invalid re-plan returns an error and changes nothing.
func (c *Core[T]) Step(mi, n int, now time.Duration) error {
	if c.ctrl == nil {
		return nil
	}
	c.ctrl.Observe(c.cfg.Models[mi], n, now)
	// Drift must be read before MaybeReplan: an applied re-plan rebases
	// the controller's reference mix, zeroing it.
	drift := c.ctrl.Drift()
	next, ops, ok := c.ctrl.MaybeReplan(now)
	if !ok {
		return nil
	}
	pin, err := c.pins(next)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if _, ok := c.index[op.To]; !ok || op.Group < 0 || op.Group >= len(c.free) {
			return fmt.Errorf("re-plan restages group %d to model %q", op.Group, op.To)
		}
	}
	c.clock.Replanned(now, drift, len(ops))
	c.pin, c.plan = pin, next
	// The new plan supersedes restages still waiting on busy groups: a
	// stale one would stage a model no longer pinned there. A group left
	// staged-mismatched pays one cold dispatch on its next claim.
	for g := range c.pending {
		c.pending[g] = -1
	}
	for _, op := range ops {
		mi := c.index[op.To]
		switch {
		case c.staged[op.Group] == mi:
			// Already holds these weights; repinning is free.
		case c.free[op.Group]:
			if err := c.stage(op.Group, mi); err != nil {
				return err
			}
		default:
			c.pending[op.Group] = mi
		}
	}
	return nil
}

// pins resolves a plan's per-group pinned models (-1 = overflow).
func (c *Core[T]) pins(p *plan.Plan) ([]int, error) {
	if p.Groups != len(c.free) {
		return nil, fmt.Errorf("plan assigns %d replica groups, node schedules %d", p.Groups, len(c.free))
	}
	pin := make([]int, len(c.free))
	for g := range pin {
		pin[g] = -1
	}
	for _, mp := range p.Models {
		mi, ok := c.index[mp.Model]
		if !ok {
			return nil, fmt.Errorf("plan names unregistered model %q", mp.Model)
		}
		for _, g := range mp.Groups {
			if g < 0 || g >= len(pin) {
				return nil, fmt.Errorf("plan pins model %s to group %d of %d", mp.Model, g, len(pin))
			}
			pin[g] = mi
		}
	}
	return pin, nil
}
