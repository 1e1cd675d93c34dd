package serve

import (
	"reflect"
	"testing"

	"neuralcache"
	"neuralcache/plan"
)

// TestDriversMakeTheSameDecisions: Simulate and a wall-clock LoadTest
// drive the same node core, so under the same scripted load they must
// make the same scheduling decisions: identical warm, cold and restage
// counts and identical per-group batches, requests and reloads.
// Arrivals are spaced far beyond service plus reload and batches never
// linger. Each model has exactly one group it may claim and a batch
// holds one request, so a late wakeup on the wall clock can delay a
// decision but not change it. Reactive, one group serves both models
// and every model switch evicts; planned (no Replan), each model's warm
// set is pre-staged on its own group.
func TestDriversMakeTheSameDecisions(t *testing.T) {
	cfg := neuralcache.DefaultConfig()
	cfg.Sockets, cfg.Slices = 1, 2
	sys, err := neuralcache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, res := neuralcache.SmallCNN(), neuralcache.SmallResNet()
	backend := NewAnalyticBackend(sys, small, res)
	p, err := plan.Compute(sys, []*neuralcache.Model{small, res},
		[]plan.Share{{Model: small.Name(), Weight: 1}, {Model: res.Name(), Weight: 1}},
		plan.Options{GroupSize: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	load := Load{Rate: 250, Requests: 50, Seed: 3,
		Mix: []ModelShare{{Model: small.Name(), Weight: 1}, {Model: res.Name(), Weight: 1}}}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"reactive", Options{MaxBatch: 1, MaxLinger: NoLinger, Replicas: 1}},
		{"planned", Options{MaxBatch: 1, MaxLinger: NoLinger, Plan: p}},
	} {
		virt, err := Simulate(backend, tc.opts, load)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		srv, err := NewServer(backend, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wall, err := LoadTest(srv, load, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// LoadTest windows out the startup pre-stages; the server's
		// lifetime count holds them, as Simulate's report does.
		wallRestages := int(srv.Stats().Restages)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if virt.Served != load.Requests || wall.Served != load.Requests {
			t.Fatalf("%s: served %d virtual, %d wall of %d", tc.name, virt.Served, wall.Served, load.Requests)
		}
		if virt.WarmDispatches != wall.WarmDispatches || virt.ColdDispatches != wall.ColdDispatches ||
			virt.Restages != wallRestages {
			t.Errorf("%s: warm/cold/restages %d/%d/%d virtual, %d/%d/%d wall", tc.name,
				virt.WarmDispatches, virt.ColdDispatches, virt.Restages,
				wall.WarmDispatches, wall.ColdDispatches, wallRestages)
		}
		type tally struct{ Batches, Requests, Reloads int }
		shards := func(r *LoadReport) []tally {
			out := make([]tally, len(r.PerShard))
			for i, u := range r.PerShard {
				out[i] = tally{u.Batches, u.Requests, u.Reloads}
			}
			return out
		}
		if v, w := shards(virt), shards(wall); !reflect.DeepEqual(v, w) {
			t.Errorf("%s: per-group batches/requests/reloads\nvirtual %v\nwall    %v", tc.name, v, w)
		}
		if tc.opts.Plan == nil && virt.ColdDispatches < 5 {
			t.Errorf("reactive: only %d cold dispatches; the scenario should churn", virt.ColdDispatches)
		}
		if tc.opts.Plan != nil && virt.Restages != 2 {
			t.Errorf("planned: %d restages, want one pre-stage per group", virt.Restages)
		}
	}
}
