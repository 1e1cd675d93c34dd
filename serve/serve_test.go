package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"neuralcache/internal/report"
	"reflect"
	"testing"
	"time"

	"neuralcache"
)

func newSystem(t testing.TB, workers int) *neuralcache.System {
	t.Helper()
	cfg := neuralcache.DefaultConfig()
	cfg.Workers = workers
	sys, err := neuralcache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// randomInput builds the deterministic input tensor for request ordinal i.
func randomInput(m *neuralcache.Model, seed int64, i int) *neuralcache.Tensor {
	h, w, c := m.InputShape()
	in := neuralcache.NewTensor(h, w, c, 1.0/255)
	r := rand.New(rand.NewSource(seed + int64(i)))
	for j := range in.Data {
		in.Data[j] = uint8(r.Intn(256))
	}
	return in
}

// TestSimulateSaturationConvergesToReplicaBound is the subsystem's
// headline acceptance test: 100k Inception-scale requests offered at
// twice capacity through the analytic-clocked backend must be served at
// the Estimate-derived slice-replica bound — Replicas × MaxBatch /
// ServiceTime(MaxBatch) — to within 5%.
func TestSimulateSaturationConvergesToReplicaBound(t *testing.T) {
	sys := newSystem(t, 0)
	m := neuralcache.InceptionV3()
	backend := NewAnalyticBackend(sys, m)
	opts := Options{MaxBatch: 16, MaxLinger: time.Millisecond, QueueDepth: 1 << 20}

	st, err := backend.ServiceTime("", opts.MaxBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(sys.Replicas()*opts.MaxBatch) / st.Seconds()
	load := Load{Rate: 2 * bound, Requests: 100_000, Seed: 42, Poisson: true}

	rep, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served < 100_000 {
		t.Fatalf("served %d requests, want >= 100000", rep.Served)
	}
	if rep.Served+rep.Rejected != rep.Offered {
		t.Fatalf("served %d + rejected %d != offered %d", rep.Served, rep.Rejected, rep.Offered)
	}
	if rel := (rep.ThroughputPerSec - bound) / bound; rel > 0.01 || rel < -0.05 {
		t.Fatalf("throughput %.1f/s vs replica bound %.1f/s: off by %.2f%%",
			rep.ThroughputPerSec, bound, rel*100)
	}
	if rep.CapacityPerSec != bound {
		t.Fatalf("reported capacity %.3f, want %.3f", rep.CapacityPerSec, bound)
	}
	// Saturated: every replica busy nearly the whole makespan.
	if rep.Utilization < 0.95 {
		t.Fatalf("utilization %.3f under saturation, want >= 0.95", rep.Utilization)
	}
	// Every shard carried traffic.
	for _, u := range rep.PerShard {
		if u.Requests == 0 {
			t.Fatalf("shard %s served nothing under saturation", u.Shard)
		}
	}
	if rep.P50 > rep.P95 || rep.P95 > rep.P99 || rep.P99 > rep.Max {
		t.Fatalf("percentiles out of order: %v %v %v %v", rep.P50, rep.P95, rep.P99, rep.Max)
	}
}

// TestSimulateDeterministic: same seed, same load, same options ⇒
// byte-identical report, run after run.
func TestSimulateDeterministic(t *testing.T) {
	sys := newSystem(t, 0)
	m := neuralcache.InceptionV3()
	opts := Options{MaxBatch: 8, MaxLinger: 500 * time.Microsecond, QueueDepth: 256}
	load := Load{Rate: 5000, Requests: 20_000, Seed: 7, Poisson: true}

	var reports []*LoadReport
	for i := 0; i < 3; i++ {
		rep, err := Simulate(NewAnalyticBackend(sys, m), opts, load)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("run %d differs from run 0:\n%v\nvs\n%v", i, reports[i], reports[0])
		}
	}
	other, err := Simulate(NewAnalyticBackend(sys, m), opts,
		Load{Rate: 5000, Requests: 20_000, Seed: 8, Poisson: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(reports[0].Histogram, other.Histogram) &&
		reports[0].Makespan == other.Makespan {
		t.Fatal("different seeds produced an identical run; arrival process ignores the seed")
	}
}

// TestSimulateWorkerInvariance: the functional engine's worker count
// must not leak into the serving schedule.
func TestSimulateWorkerInvariance(t *testing.T) {
	m := neuralcache.InceptionV3()
	opts := Options{MaxBatch: 4, QueueDepth: 128}
	load := Load{Rate: 3000, Requests: 10_000, Seed: 3, Poisson: true}
	base, err := Simulate(NewAnalyticBackend(newSystem(t, 1), m), opts, load)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		rep, err := Simulate(NewAnalyticBackend(newSystem(t, workers), m), opts, load)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("workers=%d changed the simulated schedule", workers)
		}
	}
}

// TestSimulateBackpressure: a shallow admission queue under overload
// rejects, and the queue never exceeds its bound.
func TestSimulateBackpressure(t *testing.T) {
	sys := newSystem(t, 0)
	m := neuralcache.InceptionV3()
	opts := Options{MaxBatch: 4, QueueDepth: 16, MaxLinger: time.Millisecond}
	rep, err := Simulate(NewAnalyticBackend(sys, m), opts,
		Load{Rate: 50_000, Requests: 5_000, Seed: 1, Poisson: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("overloaded shallow queue rejected nothing")
	}
	if rep.MaxQueueDepth > opts.QueueDepth {
		t.Fatalf("queue depth reached %d, bound %d", rep.MaxQueueDepth, opts.QueueDepth)
	}
	if rep.Served+rep.Rejected != rep.Offered {
		t.Fatalf("served %d + rejected %d != offered %d", rep.Served, rep.Rejected, rep.Offered)
	}
}

// TestSimulateBatchingAmortizesFilterLoad: larger micro-batches amortize
// per-layer filter loading (§IV-E), so saturated throughput must rise
// with MaxBatch.
func TestSimulateBatchingAmortizesFilterLoad(t *testing.T) {
	sys := newSystem(t, 0)
	m := neuralcache.InceptionV3()
	run := func(maxBatch int) float64 {
		t.Helper()
		rep, err := Simulate(NewAnalyticBackend(sys, m),
			Options{MaxBatch: maxBatch, QueueDepth: 1 << 16},
			Load{Rate: 1e6, Requests: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ThroughputPerSec
	}
	t1, t16 := run(1), run(16)
	if t16 <= t1 {
		t.Fatalf("batch-16 throughput %.1f/s not above batch-1 %.1f/s", t16, t1)
	}
}

// TestServerBitExactMatchesDirectRun: outputs served through the full
// admission/batching/scheduling pipeline are byte-identical to direct
// System.Run, for every worker count.
func TestServerBitExactMatchesDirectRun(t *testing.T) {
	const n = 12
	m := neuralcache.SmallCNN()
	m.InitWeights(7)

	ref := newSystem(t, 0)
	want := make([]*neuralcache.InferenceResult, n)
	for i := range want {
		res, err := ref.Run(m, randomInput(m, 99, i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, workers := range []int{1, 4} {
		sys := newSystem(t, workers)
		srv, err := NewServer(NewBitExactBackend(sys, m),
			Options{MaxBatch: 4, MaxLinger: 5 * time.Millisecond, QueueDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		chans := make([]<-chan *Response, n)
		for i := 0; i < n; i++ {
			ch, err := srv.TrySubmit(context.Background(), randomInput(m, 99, i))
			if err != nil {
				t.Fatal(err)
			}
			chans[i] = ch
		}
		for i, ch := range chans {
			r := <-ch
			if r.Err != nil {
				t.Fatalf("workers=%d request %d: %v", workers, i, r.Err)
			}
			if !bytes.Equal(r.Result.Output.Data, want[i].Output.Data) {
				t.Fatalf("workers=%d request %d: served output differs from direct Run", workers, i)
			}
			if !reflect.DeepEqual(r.Result.Logits, want[i].Logits) {
				t.Fatalf("workers=%d request %d: served logits %v, direct Run %v",
					workers, i, r.Result.Logits, want[i].Logits)
			}
			if r.BatchSize < 1 || r.BatchSize > 4 {
				t.Fatalf("request %d rode batch of %d, max 4", i, r.BatchSize)
			}
		}
		st := srv.Stats()
		if st.Served != n {
			t.Fatalf("workers=%d: served %d, want %d", workers, st.Served, n)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerRejectsNilInputForBitExact: a nil input must be refused at
// admission when the backend needs tensors, not crash an executor
// goroutine later.
func TestServerRejectsNilInputForBitExact(t *testing.T) {
	sys := newSystem(t, 1)
	m := neuralcache.SmallCNN()
	m.InitWeights(1)
	srv, err := NewServer(NewBitExactBackend(sys, m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Submit(context.Background(), nil); err == nil {
		t.Fatal("nil input admitted to bit-exact backend")
	}
	if _, err := srv.TrySubmit(context.Background(), nil); err == nil {
		t.Fatal("nil input TrySubmitted to bit-exact backend")
	}
}

// TestServerAdmission exercises shape validation, backpressure,
// cancellation and closed-server errors on the real server.
func TestServerAdmission(t *testing.T) {
	sys := newSystem(t, 1)
	m := neuralcache.InceptionV3()
	srv, err := NewServer(NewAnalyticBackend(sys, m),
		Options{MaxBatch: 2, QueueDepth: 2, MaxLinger: time.Millisecond, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := srv.Submit(context.Background(), neuralcache.NewTensor(1, 1, 1, 1)); err == nil {
		t.Fatal("mis-shaped input admitted")
	}

	// Saturate the single replica and the depth-2 queue, then observe
	// rejection. The analytic backend holds the replica ~34ms per batch,
	// so the queue cannot drain between TrySubmits.
	var sawFull bool
	for i := 0; i < 64 && !sawFull; i++ {
		_, err := srv.TrySubmit(context.Background(), nil)
		if err == ErrQueueFull {
			sawFull = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("bounded queue never reported ErrQueueFull")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Submit(canceled, nil); err != context.Canceled {
		t.Fatalf("Submit on canceled ctx: %v, want context.Canceled", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), nil); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := srv.TrySubmit(context.Background(), nil); err != ErrClosed {
		t.Fatalf("TrySubmit after Close: %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != ErrClosed {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
}

// TestLoadTestWallClockSmoke runs the wall-clock load generator against
// a real server on the analytic backend for a small model.
func TestLoadTestWallClockSmoke(t *testing.T) {
	sys := newSystem(t, 0)
	m := neuralcache.SmallCNN()
	srv, err := NewServer(NewAnalyticBackend(sys, m),
		Options{MaxBatch: 8, MaxLinger: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep, err := LoadTest(srv, Load{Rate: 20_000, Requests: 400, Seed: 5, Poisson: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served+rep.Rejected != rep.Offered || rep.Offered != 400 {
		t.Fatalf("offered %d served %d rejected %d", rep.Offered, rep.Served, rep.Rejected)
	}
	if rep.Served == 0 {
		t.Fatal("wall-clock load test served nothing")
	}
	if rep.Virtual {
		t.Fatal("LoadTest report marked virtual")
	}
	if rep.Makespan <= 0 || rep.ThroughputPerSec <= 0 {
		t.Fatalf("degenerate makespan %v / throughput %.1f", rep.Makespan, rep.ThroughputPerSec)
	}
}

// TestOptionsValidation rejects unusable configurations.
func TestOptionsValidation(t *testing.T) {
	sys := newSystem(t, 1)
	m := neuralcache.InceptionV3()
	backend := NewAnalyticBackend(sys, m)
	bad := []Options{
		{QueueDepth: -1},
		{MaxBatch: -2},
		{Replicas: sys.Replicas() + 1},
		{QueueDepth: 2, MaxBatch: 8},
	}
	for _, o := range bad {
		if _, err := NewServer(backend, o); err == nil {
			t.Fatalf("NewServer accepted %+v", o)
		}
		if _, err := Simulate(backend, o, Load{Rate: 1, Requests: 1}); err == nil {
			t.Fatalf("Simulate accepted %+v", o)
		}
	}
	if _, err := Simulate(backend, Options{}, Load{}); err == nil {
		t.Fatal("Simulate accepted empty load")
	}
	if _, err := Simulate(backend, Options{}, Load{Rate: -5, Requests: 1}); err == nil {
		t.Fatal("Simulate accepted negative rate")
	}

	// NoLinger means immediate dispatch; a plain zero means the default.
	srv, err := NewServer(backend, Options{MaxLinger: NoLinger})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Options().MaxLinger; got != 0 {
		t.Fatalf("NoLinger normalized to %v, want 0", got)
	}
	srv2, err := NewServer(backend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Options().MaxLinger; got != 2*time.Millisecond {
		t.Fatalf("default linger %v, want 2ms", got)
	}
}

// TestLoadReportJSON: the report round-trips through JSON, the contract
// the -json CLI flag and future bench-trajectory scrapers rely on.
func TestLoadReportJSON(t *testing.T) {
	sys := newSystem(t, 0)
	m := neuralcache.InceptionV3()
	rep, err := Simulate(NewAnalyticBackend(sys, m), Options{MaxBatch: 4},
		Load{Rate: 2000, Requests: 2000, Seed: 11, Poisson: true})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back LoadReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatal("LoadReport does not round-trip through JSON")
	}
	if rep.String() == "" {
		t.Fatal("empty text rendering")
	}
}

// TestPercentileAndHistogram pins the nearest-rank percentile and the
// power-of-two bucketing.
func TestPercentileAndHistogram(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := report.Percentile(samples, 0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := report.Percentile(samples, 0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := report.Percentile(samples, 1.0); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	h := histogram([]time.Duration{500 * time.Nanosecond, 3 * time.Microsecond, 3500 * time.Nanosecond})
	total := 0
	for _, b := range h {
		total += b.Count
		if b.Hi <= b.Lo {
			t.Fatalf("bucket [%v, %v) inverted", b.Lo, b.Hi)
		}
	}
	if total != 3 {
		t.Fatalf("histogram holds %d samples, want 3", total)
	}
	if h[0].Lo != 0 || h[0].Hi != time.Microsecond || h[0].Count != 1 {
		t.Fatalf("first bucket %+v", h[0])
	}
}
