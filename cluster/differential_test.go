package cluster

import (
	"reflect"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/obs"
	"neuralcache/serve"
)

// TestOneNodeClusterTracesLikeServe: a one-node reactive fleet is
// serve.Simulate behind a front door, and both record their node with
// obs.Node, so on the same system, options and seeded load the node's
// trace must equal serve's event for event once the process id and
// name are set aside — same queue spans, warm/cold batch spans with
// reload sub-spans, and queue-full rejections on the same lanes — and
// the two reports must agree on what the node served and how fast.
func TestOneNodeClusterTracesLikeServe(t *testing.T) {
	models := []*neuralcache.Model{neuralcache.InceptionV3(), neuralcache.ResNet18()}
	const (
		maxBatch   = 8
		maxLinger  = time.Millisecond
		queueDepth = 64
	)
	mix := []serve.ModelShare{
		{Model: models[0].Name(), Weight: 0.5},
		{Model: models[1].Name(), Weight: 0.5},
	}
	const rate, requests, seed = 1500, 3000, 13

	fleetTrace := &obs.Trace{}
	fleet, err := Simulate(models, Options{
		Nodes: []NodeSpec{{MaxBatch: maxBatch, MaxLinger: maxLinger, QueueDepth: queueDepth}},
		Trace: fleetTrace,
	}, Load{Rate: rate, Requests: requests, Seed: seed, Poisson: true, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}

	sys, err := neuralcache.New(neuralcache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodeTrace := serve.NewTracer()
	single, err := serve.Simulate(serve.NewAnalyticBackend(sys, models[0], models[1]),
		serve.Options{MaxBatch: maxBatch, MaxLinger: maxLinger, QueueDepth: queueDepth, Trace: nodeTrace},
		serve.Load{Rate: rate, Requests: requests, Seed: seed, Poisson: true, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}
	if single.ColdDispatches == 0 || single.Rejected == 0 {
		t.Fatalf("scenario paid %d cold dispatches and %d rejections, want both > 0",
			single.ColdDispatches, single.Rejected)
	}

	// anonymous strips what legitimately differs: the pid and the
	// process name.
	anonymous := func(events []obs.Event, pid int) []obs.Event {
		var out []obs.Event
		for _, e := range events {
			if e.Pid != pid {
				continue
			}
			e.Pid = 0
			if e.Name == "process_name" {
				e.Args = nil
			}
			out = append(out, e)
		}
		return out
	}
	got, want := anonymous(fleetTrace.Events(), 1), anonymous(nodeTrace.Events(), 0)
	if len(got) != len(want) {
		t.Fatalf("node recorded %d events, serve %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d: node recorded %+v (args %+v), serve %+v (args %+v)",
				i, got[i], got[i].Args, want[i], want[i].Args)
		}
	}

	n := fleet.Nodes[0]
	if n.Served != single.Served || n.WarmDispatches != single.WarmDispatches ||
		n.ColdDispatches != single.ColdDispatches {
		t.Errorf("node served %d (warm %d, cold %d), serve %d (warm %d, cold %d)",
			n.Served, n.WarmDispatches, n.ColdDispatches,
			single.Served, single.WarmDispatches, single.ColdDispatches)
	}
	if n.P50 != single.P50 || n.P99 != single.P99 {
		t.Errorf("node p50/p99 %v/%v, serve %v/%v", n.P50, n.P99, single.P50, single.P99)
	}
}
