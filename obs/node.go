package obs

import (
	"fmt"
	"time"
)

// Node lane layout. Every serving node is one trace process: the
// control lane (re-plan and lifecycle instants) is tid 0, one
// admission-queue lane per model follows in registration order, then
// one lane per replica group in ordinal order and, when the node has a
// front-cache, the cache lane (hit instants).
const (
	controlTid   = 0
	queueBaseTid = 1
)

// Node records one serving node's request lifecycle on its own process
// of a Trace: per-request queue spans (admission → dispatch) on the
// model's queue lane, per-batch spans — warm or cold, a cold one with
// a reload sub-span followed by a service sub-span — and restage spans
// on the group's lane, queue-full rejection, cancellation and cache-hit
// instants, and re-plan instants on the control lane. Models are named
// by their index in the node's registry, groups by their ordinal.
//
// serve.Simulate and serve.Server record their node at pid 0;
// cluster.Simulate records node i at pid i+1. Its lanes are fixed when
// Trace.Node returns, so concurrent emitters need no further locking.
// A nil *Node records nothing, so instrumented code paths need no
// guards.
type Node struct {
	tr        *Trace
	pid       int
	models    []string
	groupBase int
	cacheTid  int
}

// Node declares a serving node's process and lanes on the trace and
// returns its recorder: the process is named name, models name the
// queue lanes, groups the replica-group lanes ("group " + groups[g]),
// and cached adds the front-cache lane.
func (t *Trace) Node(pid int, name string, models, groups []string, cached bool) *Node {
	n := &Node{tr: t, pid: pid, models: models, groupBase: queueBaseTid + len(models)}
	t.Emit(Event{Name: "process_name", Phase: PhaseMetadata, Pid: pid, Args: &Args{Name: name}})
	n.lane(controlTid, "control")
	for i, m := range models {
		n.lane(queueBaseTid+i, "queue "+m)
	}
	for g, gname := range groups {
		n.lane(n.groupBase+g, "group "+gname)
	}
	if cached {
		n.cacheTid = n.groupBase + len(groups)
		n.lane(n.cacheTid, "front-cache")
	}
	return n
}

func (n *Node) lane(tid int, name string) {
	n.tr.Emit(Event{Name: "thread_name", Phase: PhaseMetadata, Pid: n.pid, Tid: tid,
		Args: &Args{Name: name}})
}

// instant records a thread-wide instant on one of the node's lanes.
func (n *Node) instant(tid int, name, cat, cname string, at time.Duration, args *Args) {
	n.tr.Emit(Event{Name: name, Cat: cat, Phase: PhaseInstant, Ts: Micros(at),
		Pid: n.pid, Tid: tid, Scope: "t", Cname: cname, Args: args})
}

// Mark records an instant on the control lane: a node lifecycle
// transition, for instance.
func (n *Node) Mark(name, cat, cname string, at time.Duration) {
	if n != nil {
		n.instant(controlTid, name, cat, cname, at, nil)
	}
}

// CacheHit records a front-cache hit at admission: an instant on the
// model's queue lane (where the absorbed request would have queued)
// and on the cache lane.
func (n *Node) CacheHit(model int, at time.Duration) {
	if n == nil {
		return
	}
	n.instant(queueBaseTid+model, "cache hit", "cache", "good", at, nil)
	n.instant(n.cacheTid, n.models[model], "cache", "good", at, &Args{Model: n.models[model]})
}

// Reject records a queue-full rejection on the model's queue lane.
func (n *Node) Reject(model int, at time.Duration) {
	if n != nil {
		n.instant(queueBaseTid+model, "reject", "admission", "terrible", at, nil)
	}
}

// Cancel records a request dropped at dispatch because its context
// expired while queued (wall-clock servers only).
func (n *Node) Cancel(model int, at time.Duration) {
	if n != nil {
		n.instant(queueBaseTid+model, "canceled", "admission", "", at, nil)
	}
}

// Queued records one request's admission → dispatch wait on its
// model's queue lane, tagged with the batch ordinal it dispatched into.
func (n *Node) Queued(model int, arrival, dispatch time.Duration, batchSeq int) {
	if n == nil {
		return
	}
	n.tr.Emit(Event{Name: "queued", Cat: "queue", Phase: PhaseComplete,
		Ts: Micros(arrival), Dur: Micros(dispatch - arrival),
		Pid: n.pid, Tid: queueBaseTid + model, Args: &Args{Seq: batchSeq}})
}

// Batch records a dispatched batch on its group's lane: the whole
// occupancy (reload + service) as one span and, on a cold dispatch, a
// reload sub-span followed by a service sub-span.
func (n *Node) Batch(group, model, size int, cold bool, seq int, start, service, reload time.Duration) {
	if n == nil {
		return
	}
	name, tid := n.models[model], n.groupBase+group
	cname := "good"
	if cold {
		cname = "bad"
	}
	n.tr.Emit(Event{Name: fmt.Sprintf("%s ×%d", name, size), Cat: "batch", Phase: PhaseComplete,
		Ts: Micros(start), Dur: Micros(reload + service), Pid: n.pid, Tid: tid, Cname: cname,
		Args: &Args{Model: name, Batch: size, Seq: seq, Cold: cold}})
	if cold && reload > 0 {
		n.tr.Emit(Event{Name: "reload", Cat: "reload", Phase: PhaseComplete,
			Ts: Micros(start), Dur: Micros(reload), Pid: n.pid, Tid: tid, Cname: "terrible",
			Args: &Args{Model: name}})
		n.tr.Emit(Event{Name: "service", Cat: "service", Phase: PhaseComplete,
			Ts: Micros(start + reload), Dur: Micros(service), Pid: n.pid, Tid: tid})
	}
}

// Restage records a planner-driven weight staging of model on the
// group's lane; from is the model it evicted (-1 when the group held
// none).
func (n *Node) Restage(group, model, from int, start, dur time.Duration) {
	if n == nil {
		return
	}
	args := &Args{Model: n.models[model]}
	if from >= 0 {
		args.From = n.models[from]
	}
	n.tr.Emit(Event{Name: "restage " + args.Model, Cat: "restage", Phase: PhaseComplete,
		Ts: Micros(start), Dur: Micros(dur), Pid: n.pid, Tid: n.groupBase + group,
		Cname: "terrible", Args: args})
}

// Replan records an applied controller re-plan on the control lane:
// its ordinal, the total-variation drift that triggered it and how many
// group restages it ordered.
func (n *Node) Replan(at time.Duration, nth int, drift float64, restages int) {
	if n != nil {
		n.instant(controlTid, "replan", "control", "bad", at,
			&Args{Seq: nth, Drift: drift, Restages: restages})
	}
}
