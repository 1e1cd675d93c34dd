package main

import (
	"time"

	"neuralcache"
	"neuralcache/internal/bitvec"
	"neuralcache/internal/geometry"
	"neuralcache/internal/sram"
	"neuralcache/plan"
	"neuralcache/serve"
)

// probeReps is how many times each probe is timed; probes report the
// median.
const probeReps = 5

// sink keeps probe results reachable so no call is optimized away.
var sink any

// perCall times n calls of fn, probeReps times, and returns the median
// duration of one call.
func perCall(n int, fn func()) time.Duration {
	ds := make([]float64, probeReps)
	for i := range ds {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			fn()
		}
		ds[i] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(quantile(ds, 0.5))
}

// layerProbes times direct calls into the layers below the serving
// tier, with operands shaped like the workloads': the full 14-slice
// LLC geometry, 8-bit elements on 256 lanes. Each probe records a span.
func layerProbes(r *run) error {
	probe := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		r.rec.add(span{Name: "probe." + name, Req: -1, Start: r.rec.at(t0), End: r.rec.at(time.Now())})
		return err
	}
	for _, p := range []struct {
		name string
		fn   func(*run) error
	}{
		{"geometry", probeGeometry},
		{"bitvec", probeBitvec},
		{"sram", probeSRAM},
		{"analytic", probeAnalytic},
		{"plan", probePlan},
		{"obs", probeObs},
	} {
		if err := probe(p.name, func() error { return p.fn(r) }); err != nil {
			return err
		}
	}
	return nil
}

func probeGeometry(r *run) error {
	var ms, mbs []float64
	for i := 0; i < probeReps; i++ {
		m0, t0 := readMem(), time.Now()
		sink = geometry.New(geometry.XeonE5())
		ms = append(ms, msOf(time.Since(t0)))
		mbs = append(mbs, float64(readMem().alloc-m0.alloc)/mb)
		sink = nil
	}
	r.m["geometry.new_ms"] = quantile(ms, 0.5)
	r.m["geometry.new_mb"] = quantile(mbs, 0.5)
	return nil
}

func lanes8() []uint64 {
	vals := make([]uint64, sram.BitLines)
	for i := range vals {
		vals[i] = uint64(i*7) & 0xff
	}
	return vals
}

func probeBitvec(r *run) error {
	vals := lanes8()
	var words [8]uint64
	var planes [8]bitvec.Vec256
	r.m["bitvec.pack64_ns"] = float64(perCall(200_000, func() { bitvec.Pack64(vals[:64], 8, words[:]) }))
	r.m["bitvec.packplanes_ns"] = float64(perCall(50_000, func() { bitvec.PackPlanes(vals, 8, planes[:]) }))
	sink = planes
	return nil
}

func probeSRAM(r *run) error {
	vals := lanes8()
	var a sram.Array
	a.WriteElements(0, 8, vals)
	a.WriteElements(8, 8, vals)
	a.Zero(200, 24, false)
	// 8-bit operands in rows 0 and 8, the product in [160, 176) and a
	// 24-bit accumulator at 200: the engine's MAC row map.
	r.m["sram.mulacc8_ns"] = float64(perCall(2_000, func() { a.MulAcc(0, 8, 160, 200, 8, 24) }))
	var b sram.Array
	r.m["sram.write_elements8_ns"] = float64(perCall(20_000, func() { b.WriteElements(0, 8, vals) }))
	return nil
}

func probeAnalytic(r *run) error {
	sys, err := neuralcache.New(neuralcache.DefaultConfig())
	if err != nil {
		return err
	}
	m := neuralcache.InceptionV3()
	d := perCall(10, func() {
		if sink, err = sys.Estimate(m, 1); err != nil {
			return
		}
	})
	r.m["analytic.estimate_inception_us"] = usOf(d)
	return err
}

// probePlan times plan.Compute for the node scenario's mix on a fresh
// system each call, so no price is memoized across calls.
func probePlan(r *run) error {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		cfg := neuralcache.DefaultConfig()
		cfg.GroupSize = nodeGroup
		sys, err := neuralcache.New(cfg)
		if err != nil {
			return err
		}
		models := []*neuralcache.Model{neuralcache.InceptionV3(), neuralcache.ResNet18()}
		t0 := time.Now()
		_, err = plan.Compute(sys, models,
			[]plan.Share{{Model: models[0].Name(), Weight: 0.8}, {Model: models[1].Name(), Weight: 0.2}},
			plan.Options{GroupSize: nodeGroup, MaxBatch: 8, RatePerSec: nodeRate})
		if err != nil {
			return err
		}
		ds = append(ds, msOf(time.Since(t0)))
	}
	r.m["plan.compute_ms"] = quantile(ds, 0.5)
	return nil
}

// probeObs times the same node-scenario pass with and without an obs
// tracer, alternating, and reports the traced pass's extra host time as
// a share of the untraced pass.
func probeObs(r *run) error {
	sc, err := newNodeScenario(obsRequests)
	if err != nil {
		return err
	}
	load := sc.loadFor(r.seed, 0)
	var plain, traced []float64
	events := 0
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if _, err := serve.Simulate(sc.be, sc.opts, load); err != nil {
			return err
		}
		plain = append(plain, float64(time.Since(t0)))
		opts := sc.opts
		opts.Trace = serve.NewTracer()
		t0 = time.Now()
		if _, err := serve.Simulate(sc.be, opts, load); err != nil {
			return err
		}
		traced = append(traced, float64(time.Since(t0)))
		events = opts.Trace.Len()
	}
	p, t := quantile(plain, 0.5), quantile(traced, 0.5)
	r.m["obs.trace_overhead_frac"] = (t - p) / p
	r.m["obs.trace_events"] = float64(events)
	return nil
}
