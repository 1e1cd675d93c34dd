package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"neuralcache"
	"neuralcache/cluster"
	"neuralcache/plan"
	"neuralcache/serve"
)

// The sim-fleet scenarios. The node scenario is the CI drift scenario
// (Inception v3 and ResNet-18 at 0.8/0.2 inverting mid-run, planned
// with a 0.15 replan threshold) scaled up in request count; the fleet
// scenario is a hot-spot inversion across four stock nodes with one
// killed mid-run. Both are sized so one pass takes a few tens of
// milliseconds of host time: long enough to time, short enough that a
// run holds hundreds of passes.
const (
	nodeRate      = 600
	nodeRequests  = 30_000
	nodeGroup     = 7
	fleetRate     = 900
	fleetRequests = 20_000
	fleetNodes    = 4
	// subSeeds is how many load seeds, all derived from the workload
	// seed, the passes cycle through. The modeled figures are medians
	// over them, so one unlucky arrival stream moves them by one rank.
	subSeeds = 5
	// obsRequests sizes the node passes the obs probe times.
	obsRequests = 20_000
)

// nodeScenario is the node scenario's backend, options and load.
type nodeScenario struct {
	be   *serve.AnalyticBackend
	opts serve.Options
	load serve.Load
}

// newNodeScenario builds the node scenario for the given request count;
// its load takes a seed from loadFor.
func newNodeScenario(requests int) (*nodeScenario, error) {
	cfg := neuralcache.DefaultConfig()
	cfg.GroupSize = nodeGroup
	sys, err := neuralcache.New(cfg)
	if err != nil {
		return nil, err
	}
	inc, res := neuralcache.InceptionV3(), neuralcache.ResNet18()
	be := serve.NewAnalyticBackend(sys, inc, res)
	p, err := plan.Compute(sys, []*neuralcache.Model{inc, res},
		[]plan.Share{{Model: inc.Name(), Weight: 0.8}, {Model: res.Name(), Weight: 0.2}},
		plan.Options{GroupSize: nodeGroup, MaxBatch: 8, RatePerSec: nodeRate})
	if err != nil {
		return nil, err
	}
	half := time.Duration(float64(requests) / nodeRate / 2 * float64(time.Second))
	return &nodeScenario{
		be: be,
		opts: serve.Options{GroupSize: nodeGroup, MaxBatch: 8, MaxLinger: 5 * time.Millisecond,
			Plan: p, Replan: plan.ControllerConfig{Threshold: 0.15}},
		load: serve.Load{Rate: nodeRate, Requests: requests, Poisson: true,
			Mix: []serve.ModelShare{{Model: inc.Name(), Weight: 0.8}, {Model: res.Name(), Weight: 0.2}},
			MixSchedule: []serve.MixShift{{At: half,
				Mix: []serve.ModelShare{{Model: inc.Name(), Weight: 0.2}, {Model: res.Name(), Weight: 0.8}}}}},
	}, nil
}

// simSetup is what setup_s times on sim-fleet: both scenarios' systems,
// models, backend and residency plan.
type simSetup struct {
	node        *nodeScenario
	fleetModels []*neuralcache.Model
	fleetOpts   cluster.Options
	fleetLoad   cluster.Load
	sys         *neuralcache.System // prices Inception v3 each pass
}

func newSimFleet() (*simSetup, error) {
	node, err := newNodeScenario(nodeRequests)
	if err != nil {
		return nil, err
	}
	sys, err := neuralcache.New(neuralcache.DefaultConfig())
	if err != nil {
		return nil, err
	}
	models := []*neuralcache.Model{neuralcache.InceptionV3(), neuralcache.ResNet18(), neuralcache.SmallCNN()}
	mix := func(w ...float64) []serve.ModelShare {
		out := make([]serve.ModelShare, len(models))
		for i, m := range models {
			out[i] = serve.ModelShare{Model: m.Name(), Weight: w[i]}
		}
		return out
	}
	span := time.Duration(fleetRequests) * time.Second / fleetRate
	return &simSetup{
		node:        node,
		fleetModels: models,
		fleetOpts: cluster.Options{
			Nodes:  make([]cluster.NodeSpec, fleetNodes),
			Router: cluster.ModelAffinity{},
			Events: []cluster.NodeEvent{{At: span / 2, Node: 1, Kind: cluster.KillNode}},
		},
		fleetLoad: cluster.Load{Rate: fleetRate, Requests: fleetRequests, Poisson: true,
			Mix:         mix(0.6, 0.3, 0.1),
			MixSchedule: []serve.MixShift{{At: span * 2 / 5, Mix: mix(0.1, 0.2, 0.7)}}},
		sys: sys,
	}, nil
}

// subSeed is the load seed of the workload seed's j-th sub-seed.
func subSeed(seed int64, j int) int64 { return seed*subSeeds + int64(j) }

func (n *nodeScenario) loadFor(seed int64, j int) serve.Load {
	l := n.load
	l.Seed = subSeed(seed, j)
	return l
}

func (s *simSetup) fleetLoadFor(seed int64, j int) cluster.Load {
	l := s.fleetLoad
	l.Seed = subSeed(seed, j)
	return l
}

// pass runs both scenarios once for sub-seed j.
func (s *simSetup) pass(seed int64, j int) (*serve.LoadReport, *cluster.Report, error) {
	node, err := serve.Simulate(s.node.be, s.node.opts, s.node.loadFor(seed, j))
	if err != nil {
		return nil, nil, fmt.Errorf("node scenario: %w", err)
	}
	fleet, err := cluster.Simulate(s.fleetModels, s.fleetOpts, s.fleetLoadFor(seed, j))
	if err != nil {
		return nil, nil, fmt.Errorf("fleet scenario: %w", err)
	}
	return node, fleet, nil
}

func runSimFleet(r *run) error {
	release := func(*simSetup) error { return nil }
	var setups []float64
	s, err := newSimFleet()
	if err != nil {
		return err
	}

	// Warm-up: one untimed pass per sub-seed records the reference
	// reports; every timed pass of the sub-seed must repeat them byte
	// for byte.
	refs := make([]reference, subSeeds)
	for j := range refs {
		ref := &refs[j]
		if ref.node, ref.fleet, err = s.pass(r.seed, j); err != nil {
			return err
		}
		checkPass(r, fmt.Sprintf("warm-up pass %d", j), ref.node, ref.fleet, ref)
	}
	r.info["warmup"] = map[string]any{"ran": true, "passes": subSeeds}

	var nodeMs, fleetMs, nodeMB, fleetMB []float64
	var hostTime time.Duration
	var simulated, allocBytes uint64
	mem0 := readMem()
	start := time.Now()
	for pass := 0; time.Since(start) < r.seconds; pass++ {
		j := pass % subSeeds
		m0, c0, t0 := readMem(), cpuTime(), time.Now()
		node, err := serve.Simulate(s.node.be, s.node.opts, s.node.loadFor(r.seed, j))
		if err != nil {
			return fmt.Errorf("node scenario: %w", err)
		}
		m1, c1, t1 := readMem(), cpuTime(), time.Now()
		fleet, err := cluster.Simulate(s.fleetModels, s.fleetOpts, s.fleetLoadFor(r.seed, j))
		if err != nil {
			return fmt.Errorf("fleet scenario: %w", err)
		}
		m2, c2, t2 := readMem(), cpuTime(), time.Now()
		if _, err := s.sys.Estimate(neuralcache.InceptionV3(), 1); err != nil {
			return err
		}
		t3 := time.Now()
		if r.rec != nil {
			at := r.rec.at
			r.rec.add(span{Name: "pass", Req: pass, Start: at(t0), End: at(t3)})
			r.rec.add(span{Name: "sim.node", Parent: "pass", Req: pass, Start: at(t0), End: at(t1)})
			r.rec.add(span{Name: "sim.fleet", Parent: "pass", Req: pass, Start: at(t1), End: at(t2)})
			r.rec.add(span{Name: "analytic.estimate", Parent: "pass", Req: pass, Start: at(t2), End: at(t3)})
		}
		nodeMs = append(nodeMs, msOf(c1-c0))
		fleetMs = append(fleetMs, msOf(c2-c1))
		nodeMB = append(nodeMB, float64(m1.alloc-m0.alloc)/mb)
		fleetMB = append(fleetMB, float64(m2.alloc-m1.alloc)/mb)
		hostTime += t2.Sub(t0)
		allocBytes += m2.alloc - m0.alloc
		simulated += uint64(node.Offered + fleet.Offered)

		// One set-up build after each pass spreads the builds over the
		// run, so their median sees the host as the passes do.
		if err := timeSetup(&setups, newSimFleet, release); err != nil {
			return err
		}

		r.attempted++
		if !checkPass(r, fmt.Sprintf("pass %d", pass), node, fleet, &refs[j]) {
			r.failed++
		}
	}
	mem1 := readMem()
	r.m["heap_live_mb"] = liveHeapMB()
	runtime.KeepAlive(s)

	// The modeled figures, over the sub-seeds.
	var nodeP90, fleetP90, nodeP99, fleetP99, nodeCap []float64
	var served, offered, nodeCold, fleetCold, lost, replans, restages int
	var batch, coldFrac, busy, rejected float64
	for _, f := range refs {
		nodeP90 = append(nodeP90, msOf(f.node.P90))
		fleetP90 = append(fleetP90, msOf(f.fleet.P90))
		nodeP99 = append(nodeP99, msOf(f.node.P99))
		fleetP99 = append(fleetP99, msOf(f.fleet.P99))
		nodeCap = append(nodeCap, f.node.CapacityPerSec)
		served += f.node.Served + f.fleet.Served
		offered += f.node.Offered + f.fleet.Offered
		nodeCold += f.node.ColdDispatches
		fleetCold += f.fleet.ColdDispatches
		lost += f.fleet.Lost
		replans += f.node.Replans
		restages += f.node.Restages
		batch += f.node.MeanBatch / subSeeds
		coldFrac += ratio(float64(f.node.ColdDispatches), float64(f.node.ColdDispatches+f.node.WarmDispatches)) / subSeeds
		busy += f.node.Utilization / subSeeds
		rejected += float64(f.node.Rejected)
	}

	// Here light is the node scenario and heavy the fleet scenario. p50
	// is the host CPU time one pass of it takes, which a user of the
	// simulator waits on an otherwise idle host; the tails are the ones
	// the scenario models, on the virtual clock.
	r.m["p50_ms.light"] = quantile(nodeMs, 0.5)
	r.m["p50_ms.heavy"] = quantile(fleetMs, 0.5)
	r.m["p90_ms.light"] = quantile(nodeP90, 0.5)
	r.m["p90_ms.heavy"] = quantile(fleetP90, 0.5)
	r.m["trace.p99_ms.light"] = quantile(nodeP99, 0.5)
	r.m["trace.p99_ms.heavy"] = quantile(fleetP99, 0.5)
	// The simulator's own speed is in the p50s; capacity is the node's
	// modeled bound, which no scheduling can beat.
	r.m["capacity_rps"] = quantile(nodeCap, 0.5)
	r.info["sim_req_per_host_s"] = float64(simulated) / hostTime.Seconds()
	r.m["success_frac"] = float64(served) / float64(offered)
	r.m["alloc_mb_per_req"] = float64(allocBytes) / mb / float64(simulated)
	r.info["passes"] = r.attempted
	r.info["sub_seeds"] = subSeeds
	r.info["requests_per_pass"] = map[string]int{"node": refs[0].node.Offered, "fleet": refs[0].fleet.Offered}
	r.info["samples"] = map[string]int{"node_passes": len(nodeMs), "fleet_passes": len(fleetMs)}

	r.m["sim.node_ms_per_pass"] = quantile(nodeMs, 0.5)
	r.m["sim.fleet_ms_per_pass"] = quantile(fleetMs, 0.5)
	r.m["sim.node_alloc_mb"] = quantile(nodeMB, 0.5)
	r.m["sim.fleet_alloc_mb"] = quantile(fleetMB, 0.5)
	r.m["sim.node_cold_dispatches"] = float64(nodeCold)
	r.m["sim.fleet_cold_dispatches"] = float64(fleetCold)
	r.m["sim.fleet_lost"] = float64(lost)
	r.m["plan.replans"] = float64(replans)
	r.m["plan.restages"] = float64(restages)
	r.m["runtime.gc_cycles_per_kreq"] = 1000 * float64(mem1.gcs-mem0.gcs) / float64(simulated)
	// The serve layer here is serve.Simulate on the virtual clock: its
	// batching and occupancy figures exist, its wall-clock ones do not.
	r.m["serve.batch_size.mean"] = batch
	r.m["serve.cold_frac"] = coldFrac
	r.m["serve.busy_frac"] = busy
	r.m["serve.rejected"] = rejected
	if r.traced {
		if err := layerProbes(r); err != nil {
			return err
		}
	}
	for len(setups) < setupRounds {
		if err := timeSetup(&setups, newSimFleet, release); err != nil {
			return err
		}
	}
	r.m["setup_s"] = quantile(setups, 0.5)
	return nil
}

// reference is a sub-seed's warm-up pass: its reports, and their JSON,
// which every timed pass of the sub-seed must repeat byte for byte.
type reference struct {
	node                *serve.LoadReport
	fleet               *cluster.Report
	nodeJSON, fleetJSON []byte
}

// checkPass holds a pass to its sub-seed's reference, recording the
// reference's JSON on the first call: the virtual clock makes both
// reports byte-identical for a seed. Every offered request must be
// served, rejected or lost.
func checkPass(r *run, label string, node *serve.LoadReport, fleet *cluster.Report, ref *reference) bool {
	ok := true
	if node.Offered != node.Served+node.Rejected {
		r.fail("%s: node offered %d != served %d + rejected %d", label, node.Offered, node.Served, node.Rejected)
		ok = false
	}
	if fleet.Offered != fleet.Served+fleet.Rejected+fleet.Lost {
		r.fail("%s: fleet offered %d != served %d + rejected %d + lost %d",
			label, fleet.Offered, fleet.Served, fleet.Rejected, fleet.Lost)
		ok = false
	}
	for _, c := range []struct {
		name   string
		report any
		json   *[]byte
	}{{"node", node, &ref.nodeJSON}, {"fleet", fleet, &ref.fleetJSON}} {
		b, err := json.Marshal(c.report)
		if err != nil {
			r.fail("%s: %s report: %v", label, c.name, err)
			ok = false
			continue
		}
		if *c.json == nil {
			*c.json = b
		} else if !bytes.Equal(b, *c.json) {
			r.fail("%s: %s report differs from its warm-up pass", label, c.name)
			ok = false
		}
	}
	return ok
}
