package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neuralcache"
	"neuralcache/serve"
)

// The bitexact-reuse workload: a wall-clock server on the bit-exact
// backend serving SmallCNN, with an exact front-cache in front of it
// and inputs drawn Zipf(zipfS) from a fixed universe. The cache answers
// most requests; the engine runs only the misses, all on warm
// dispatches.
const (
	// llcSlices is the LLC slices per socket. On the full 14-slice LLC
	// every Run allocates 37.5 MB, and on a 2-core host the miss latency
	// wanders by ±20% from one half-minute to the next, more than the
	// bound can absorb. One slice per socket allocates 3.2 MB per Run and
	// holds steady; the outputs are bit-identical either way.
	llcSlices = 1
	// queueDepth bounds admission low enough that the overload phase
	// fills it within a second.
	queueDepth    = 64
	cacheCapacity = 1024
	zipfS         = 1.1
	universeSize  = 4096
	// warmChunk is the warm-up's Zipf draws per round.
	warmChunk     = 500
	maxWarmRounds = 20
)

// rates are the offered requests per second, by phase. They were
// measured once on a 2-core host against the server's miss capacity
// and are fixed here so every commit is offered the same traffic.
var rates = [nPhases]float64{400, 600, 5000}

// bitexactSetup is what setup_s times: the system, the model and its
// weights, the backend and the server.
type bitexactSetup struct {
	sys   *neuralcache.System
	model *neuralcache.Model
	tb    *timedBackend // nil unless traced
	srv   *serve.Server
}

func newBitExact(r *run) (*bitexactSetup, error) {
	cfg := neuralcache.DefaultConfig()
	cfg.Slices = llcSlices
	sys, err := neuralcache.New(cfg)
	if err != nil {
		return nil, err
	}
	model := neuralcache.SmallCNN()
	model.InitWeights(r.seed)
	be := serve.NewBitExactBackend(sys, model)
	var backend serve.Backend = be
	var tb *timedBackend
	if r.traced {
		tb = &timedBackend{BitExactBackend: be, rec: r.rec}
		backend = tb
	}
	srv, err := serve.NewServer(backend, serve.Options{
		Replicas:   runtime.NumCPU(),
		QueueDepth: queueDepth,
		Cache:      serve.CacheOptions{Capacity: cacheCapacity},
	})
	if err != nil {
		return nil, err
	}
	return &bitexactSetup{sys: sys, model: model, tb: tb, srv: srv}, nil
}

func runBitExact(r *run) error {
	s, err := newBitExact(r)
	if err != nil {
		return err
	}
	// The set-up builds are timed in two halves, one before the warm-up
	// and one after the window, so their median sees the host at both
	// ends of the run. Each build starts on a freshly collected heap:
	// left to itself, the collector's phase at the moment a build starts
	// sets whether it runs inside the build.
	var setups []float64
	timeBuilds := func(n int) error {
		for i := 0; i < n; i++ {
			runtime.GC()
			if err := timeSetup(&setups, func() (*bitexactSetup, error) { return newBitExact(r) },
				func(s *bitexactSetup) error { return s.srv.Close() }); err != nil {
				return err
			}
		}
		return nil
	}
	if err := timeBuilds(setupRounds / 2); err != nil {
		return err
	}
	if err := measureBitExact(r, s); err != nil {
		return err
	}
	// The benchmark's own inputs and responses died with
	// measureBitExact; what stays live is the server's.
	r.m["heap_live_mb"] = liveHeapMB()
	if r.traced {
		if err := layerProbes(r); err != nil {
			return err
		}
	}
	if err := s.srv.Close(); err != nil {
		return err
	}
	if err := timeBuilds(setupRounds - setupRounds/2); err != nil {
		return err
	}
	r.m["setup_s"] = quantile(setups, 0.5)
	return nil
}

// inputs is the workload's input universe, with the reference result
// of each input: requests carry keys into it, so equal keys carry equal
// bytes.
type inputs struct {
	byKey []*neuralcache.Tensor
	refs  []*neuralcache.InferenceResult
}

// newInputs draws the universe from rng and computes every input's
// reference with Model.RunReference, on one goroutine per CPU. The
// measured window runs after it, so checking a response there costs a
// byte comparison and allocates nothing.
func newInputs(rng *rand.Rand, m *neuralcache.Model) (*inputs, error) {
	in := &inputs{refs: make([]*neuralcache.InferenceResult, universeSize)}
	for k := 0; k < universeSize; k++ {
		in.byKey = append(in.byKey, randomTensor(rng, m))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, runtime.NumCPU())
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= universeSize {
					return
				}
				ref, err := m.RunReference(in.byKey[k])
				if err != nil {
					errs <- err
					return
				}
				in.refs[k] = ref
			}
		}()
	}
	wg.Wait()
	close(errs)
	return in, <-errs
}

// source returns an inputSource drawing Zipf keys from its own stream.
// Each request gets its own Tensor header (sharing its key's bytes), so
// requests stay distinguishable by pointer.
func (in *inputs) source(rng *rand.Rand) inputSource {
	zipf := rand.NewZipf(rng, zipfS, 1, universeSize-1)
	return func() (int, *neuralcache.Tensor) {
		k := int(zipf.Uint64())
		t := *in.byKey[k]
		return k, &t
	}
}

// check compares a served result with the reference of its input.
func (in *inputs) check(a *arrival, got *neuralcache.InferenceResult) error {
	want := in.refs[a.key]
	switch {
	case got == nil || got.Output == nil:
		return fmt.Errorf("input %d: no result", a.key)
	case got.Output.H != want.Output.H || got.Output.W != want.Output.W || got.Output.C != want.Output.C,
		!bytes.Equal(got.Output.Data, want.Output.Data), !slices.Equal(got.Logits, want.Logits):
		return fmt.Errorf("input %d: output differs from RunReference", a.key)
	}
	return nil
}

// heapFootprint is the heap memory the runtime holds from the OS.
func heapFootprint() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapSys - st.HeapReleased
}

// warmUp runs untimed closed-loop traffic until each replica group has
// dispatched the model, the front-cache is full, and a round no longer
// grows the heap the runtime holds. It replays the workload's Zipf
// stream from a stream of its own.
func warmUp(r *run, s *bitexactSetup, in *inputs) error {
	next := in.source(rand.New(rand.NewSource(r.seed ^ 0x5eed)))
	replicas := s.srv.Options().Replicas
	groups := make(map[string]bool)
	requests, rounds := 0, 0
	entries := func() int {
		st := s.srv.Stats()
		return int(st.CacheInserts - st.CacheEvictions)
	}
	heap := heapFootprint()
	steady := false
	for rounds < maxWarmRounds && !(steady && len(groups) == replicas && entries() >= cacheCapacity) {
		reqs := make([]arrival, warmChunk)
		for i := range reqs {
			k, t := next()
			reqs[i] = arrival{model: s.model.Name(), key: k, input: t}
		}
		// Enough concurrent submitters to fill a batch on every group at
		// once, so each group dispatches.
		resps, err := replay(s.srv, reqs, s.srv.Options().MaxBatch*replicas)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for i, resp := range resps {
			if resp.Err != nil {
				return fmt.Errorf("warm-up: %w", resp.Err)
			}
			if err := in.check(&reqs[i], resp.Result); err != nil {
				r.fail("warm-up %v", err)
			}
			if !resp.CacheHit {
				groups[resp.Shard.String()] = true
			}
		}
		requests += len(reqs)
		rounds++
		now := heapFootprint()
		steady = float64(now) <= 1.02*float64(heap)
		heap = max(heap, now)
	}
	r.info["warmup"] = map[string]any{
		"ran":           true,
		"rounds":        rounds,
		"requests":      requests,
		"groups_warm":   len(groups),
		"groups":        replicas,
		"cache_entries": entries(),
		"heap_steady":   steady,
		"heap_held_mb":  float64(heap) / mb,
	}
	return nil
}

func measureBitExact(r *run, s *bitexactSetup) error {
	rng := rand.New(rand.NewSource(r.seed))
	in, err := newInputs(rng, s.model)
	if err != nil {
		return err
	}
	layout := blocks(r.seconds, rates)
	sched := schedule(rng, layout, s.model.Name(), in.source(rng))
	if err := warmUp(r, s, in); err != nil {
		return err
	}
	r.info["rates_rps"] = map[string]float64{"light": rates[light], "heavy": rates[heavy], "overload": rates[overload]}
	r.info["blocks"] = len(layout)
	r.info["replicas"] = s.srv.Options().Replicas
	r.info["queue_depth"] = queueDepth

	r.info["heap_live_at_window_mb"] = liveHeapMB()
	// At each block boundary the generator reads the steal counter and,
	// as the overload block begins, the bytes allocated so far.
	steal := make([]float64, len(layout))
	ticks0 := readTicks()
	last, mark := -1, ticks0
	var memOverload memSnap
	onBlock := func(b int) {
		now := readTicks()
		if last >= 0 {
			steal[last] = now.stealShare(mark)
		}
		last, mark = b, now
		if b == len(layout)-1 {
			memOverload = readMem()
		}
	}
	st0, mem0 := s.srv.Stats(), readMem()
	t0 := time.Now()
	out := drive(s.srv, sched, onBlock, in.check, s.tb, r.rec)
	window := time.Since(t0)
	st1, mem1 := s.srv.Stats(), readMem()
	onBlock(len(layout))

	// ph holds the latencies and steal share of each light and heavy
	// block, by phase.
	var ph [overload]phaseBlocks
	for bi, b := range layout {
		if b.phase != overload {
			ph[b.phase].lat = append(ph[b.phase].lat, nil)
			ph[b.phase].steal = append(ph[b.phase].steal, steal[bi])
		}
	}
	var queued, service, gap, hitLat, submit, late []float64
	attempted, good, served := 0, 0, 0
	for i, o := range out {
		a := sched[i]
		submit = append(submit, usOf(o.submit))
		late = append(late, msOf(o.late))
		if o.err != nil {
			r.failed++
			r.fail("request %d: %v", i, o.err)
		}
		if o.served() {
			served++
		}
		if a.phase == overload {
			continue
		}
		// In the light and heavy phases every request must be answered
		// correctly; a refusal fails the run.
		attempted++
		if o.refused {
			r.failed++
			r.fail("request %d: refused in a %s block", i, phaseNames[a.phase])
		}
		if !o.served() {
			continue
		}
		good++
		w := a.block / 2 // blocks alternate light, heavy
		ph[a.phase].lat[w] = append(ph[a.phase].lat[w], msOf(o.e2e))
		if o.hit {
			hitLat = append(hitLat, usOf(o.latency))
			continue
		}
		queued = append(queued, msOf(o.queued))
		svc := o.latency - o.queued
		service = append(service, msOf(svc))
		if s.tb != nil {
			gap = append(gap, msOf(svc-s.tb.exec[i]))
		}
	}
	r.attempted = len(out)
	if attempted == 0 || served == 0 {
		return fmt.Errorf("%s: no requests served in %v", r.workload, window)
	}
	quiet := [overload][][]float64{ph[light].quiet(), ph[heavy].quiet()}
	r.info["windows"] = windowInfo(quiet)
	r.info["steal"] = map[string]any{
		"cap":               stealCap,
		"window_share":      mark.stealShare(ticks0),
		"light_share":       ph[light].steal,
		"heavy_share":       ph[heavy].steal,
		"light_blocks_kept": len(quiet[light]),
		"heavy_blocks_kept": len(quiet[heavy]),
	}
	// The tail is p90: on a virtual machine p99 is set by the pauses
	// the host imposes, and moves with the host's load from run to run.
	// p99 is reported by the traced run.
	r.m["p50_ms.light"] = windowed(quiet[light], 0.5)
	r.m["p90_ms.light"] = windowed(quiet[light], 0.9)
	r.m["trace.p99_ms.light"] = windowed(quiet[light], 0.99)
	r.m["p50_ms.heavy"] = windowed(quiet[heavy], 0.5)
	r.m["p90_ms.heavy"] = windowed(quiet[heavy], 0.9)
	r.m["trace.p99_ms.heavy"] = windowed(quiet[heavy], 0.99)
	r.m["success_frac"] = float64(good) / float64(attempted)
	r.m["capacity_rps"] = capacity(r, layout[len(layout)-1], sched, out)
	// Allocation is counted over the light and heavy blocks: in the
	// overload block the share of misses among served requests follows
	// the capacity the host allows.
	r.m["alloc_mb_per_req"] = float64(memOverload.alloc-mem0.alloc) / mb / float64(good)
	r.m["runtime.gc_cycles_per_kreq"] = 1000 * float64(mem1.gcs-mem0.gcs) / float64(served)
	r.info["samples"] = map[string]int{"light": count(quiet[light]), "heavy": count(quiet[heavy]), "attempted": len(out), "served": served}

	r.m["serve.submit_us.p50"] = quantile(submit, 0.5)
	r.m["serve.queue_ms.p50"] = quantile(queued, 0.5)
	r.m["serve.queue_ms.p99"] = quantile(queued, 0.99)
	r.m["serve.service_ms.p50"] = quantile(service, 0.5)
	r.m["serve.dispatch_gap_ms.p50"] = quantile(gap, 0.5)
	batches := float64(st1.Batches - st0.Batches)
	batched := st1.MeanBatch*float64(st1.Batches) - st0.MeanBatch*float64(st0.Batches)
	r.m["serve.batch_size.mean"] = ratio(batched, batches)
	r.m["serve.cold_frac"] = ratio(float64(st1.ColdBatches-st0.ColdBatches), batches)
	var busy time.Duration
	for i := range st1.PerShard {
		busy += st1.PerShard[i].Busy - st0.PerShard[i].Busy
	}
	r.m["serve.busy_frac"] = float64(busy) / float64(window*time.Duration(len(st1.PerShard)))
	r.m["serve.rejected"] = float64(st1.Rejected - st0.Rejected)
	r.m["serve.failed"] = float64(st1.Failed - st0.Failed)
	hits, misses := float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheMisses-st0.CacheMisses)
	r.m["cache.hit_frac"] = ratio(hits, hits+misses)
	r.m["cache.hit_latency_us.p50"] = quantile(hitLat, 0.5)
	r.m["cache.inserts"] = float64(st1.CacheInserts - st0.CacheInserts)
	r.m["cache.evictions"] = float64(st1.CacheEvictions - st0.CacheEvictions)
	r.m["gen.late_ms.p99"] = quantile(late, 0.99)
	r.m["gen.late_ms.max"] = quantile(late, 1)
	if s.tb != nil {
		r.m["engine.run_ms.p50"] = quantile(s.tb.perReq, 0.5)
		r.m["engine.run_ms.p99"] = quantile(s.tb.perReq, 0.99)
	}
	return engineQuiet(r, s, sched[0].input)
}

// stealCap is the share of the machine's CPU time the hypervisor may
// have given to other guests during a block before the block's
// latencies are set aside: they then measure the host, not the program.
const stealCap = 0.02

// phaseBlocks is one phase's blocks: each block's latencies and the
// share of CPU time stolen while it ran.
type phaseBlocks struct {
	lat   [][]float64
	steal []float64
}

// quiet returns the latencies of the blocks whose steal share is at
// most stealCap or, when fewer than half of them are, of the
// least-stolen half.
func (p *phaseBlocks) quiet() [][]float64 {
	idx := make([]int, len(p.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.steal[idx[a]] < p.steal[idx[b]] })
	n := (len(idx) + 1) / 2
	for n < len(idx) && p.steal[idx[n]] <= stealCap {
		n++
	}
	out := make([][]float64, n)
	for i, j := range idx[:n] {
		out[i] = p.lat[j]
	}
	return out
}

// windowed returns the median over blocks of each block's q-quantile,
// so a stall of the host in one block moves it by one rank, not by the
// stall's length.
func windowed(ws [][]float64, q float64) float64 {
	qs := make([]float64, 0, len(ws))
	for _, w := range ws {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return quantile(qs, 0.5)
}

func windowInfo(lat [overload][][]float64) map[string][]float64 {
	out := map[string][]float64{}
	for p, ws := range lat {
		for _, w := range ws {
			c := append([]float64(nil), w...)
			for _, q := range []struct {
				name string
				q    float64
			}{{".p50", 0.5}, {".p90", 0.9}, {".p99", 0.99}} {
				out[phaseNames[p]+q.name] = append(out[phaseNames[p]+q.name], quantile(c, q.q))
			}
		}
	}
	return out
}

func count(ws [][]float64) int {
	n := 0
	for _, w := range ws {
		n += len(w)
	}
	return n
}

// capacity is the rate at which the replica groups served cache misses
// in the overload block, from the moment the admission queue first
// refused a request (the backlog at its bound) to the end of the block.
// Hits are answered at admission and follow the offered rate, so they
// are left out: this is the engine and scheduler's throughput.
func capacity(r *run, ob block, sched []arrival, out []outcome) float64 {
	from, full := ob.start, false
	for i, o := range out {
		if sched[i].phase == overload && o.refused {
			from, full = o.done, true
			break
		}
	}
	n := 0
	for _, o := range out {
		if o.served() && !o.hit && o.done >= from && o.done < ob.end {
			n++
		}
	}
	r.info["overload"] = map[string]any{"queue_reached_bound": full, "window_s": (ob.end - from).Seconds(), "misses_served": n}
	return float64(n) / (ob.end - from).Seconds()
}

// engineQuiet calls System.Run directly on a workload input with the
// server idle: host bytes per run and the modeled cycle counts, which
// depend on the model only.
func engineQuiet(r *run, s *bitexactSetup, input *neuralcache.Tensor) error {
	before := readMem()
	res, err := s.sys.Run(s.model, input)
	if err != nil {
		return err
	}
	r.m["engine.alloc_mb_per_run"] = float64(readMem().alloc-before.alloc) / mb
	r.m["sram.compute_cycles_per_req"] = float64(res.ComputeCycles)
	r.m["sram.access_cycles_per_req"] = float64(res.AccessCycles)
	r.m["sram.arrays_per_req"] = float64(res.ArraysUsed)
	return nil
}
