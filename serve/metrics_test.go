package serve

import (
	"neuralcache/internal/report"
	"testing"
	"time"

	"neuralcache"
)

// TestPercentileEdgeCases pins the nearest-rank estimator at the sample
// and quantile boundaries.
func TestPercentileEdgeCases(t *testing.T) {
	one := []time.Duration{42 * time.Millisecond}
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"n=1 q=0", one, 0, 42 * time.Millisecond},
		{"n=1 q=0.5", one, 0.5, 42 * time.Millisecond},
		{"n=1 q=1", one, 1, 42 * time.Millisecond},
		{"q=0 clamps to first", ten, 0, 1 * time.Millisecond},
		{"q=1 is max", ten, 1, 10 * time.Millisecond},
		{"q just above bucket boundary", ten, 0.101, 2 * time.Millisecond},
		{"q exactly on boundary", ten, 0.1, 1 * time.Millisecond},
		{"q>1 clamps to max", ten, 1.5, 10 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := report.Percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: percentile(q=%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestHistogramSingleSample: one sample yields exactly one bucket that
// contains it, with sane [Lo, Hi) bounds.
func TestHistogramSingleSample(t *testing.T) {
	for _, d := range []time.Duration{0, 500 * time.Nanosecond, time.Microsecond, 7 * time.Millisecond} {
		h := histogram([]time.Duration{d})
		if len(h) != 1 {
			t.Fatalf("histogram(%v): %d buckets, want 1", d, len(h))
		}
		b := h[0]
		if b.Count != 1 {
			t.Errorf("histogram(%v): count %d", d, b.Count)
		}
		if b.Hi <= b.Lo {
			t.Errorf("histogram(%v): inverted bucket [%v, %v)", d, b.Lo, b.Hi)
		}
		if d < b.Lo || (d >= b.Hi && d >= time.Microsecond) {
			t.Errorf("histogram(%v): sample outside its bucket [%v, %v)", d, b.Lo, b.Hi)
		}
	}
}

// TestHistogramContiguity: widely spaced samples produce a contiguous
// bucket run (each Hi is the next Lo), including the empty middles.
func TestHistogramContiguity(t *testing.T) {
	h := histogram([]time.Duration{2 * time.Microsecond, 300 * time.Microsecond})
	if len(h) < 3 {
		t.Fatalf("%d buckets for a 2µs..300µs span, want the empty middles too", len(h))
	}
	total, empties := 0, 0
	for i, b := range h {
		total += b.Count
		if b.Count == 0 {
			empties++
		}
		if i > 0 && h[i-1].Hi != b.Lo {
			t.Fatalf("bucket %d not contiguous: [%v, %v) after [%v, %v)",
				i, b.Lo, b.Hi, h[i-1].Lo, h[i-1].Hi)
		}
	}
	if total != 2 || empties == 0 {
		t.Fatalf("contiguity run holds %d samples with %d empty buckets", total, empties)
	}
	if histogram(nil) != nil {
		t.Fatal("empty sample set should produce a nil histogram")
	}
}

// TestFinishDegenerateWindows: finish must stay well-defined with no
// completed requests and a zero observation window — no divide-by-zero,
// zero percentiles, empty histogram, capacity still priced.
func TestFinishDegenerateWindows(t *testing.T) {
	backend := NewAnalyticBackend(newSystem(t, 1), neuralcache.SmallCNN())
	cases := []struct {
		name      string
		latencies []time.Duration
		window    time.Duration
	}{
		{"empty latencies, zero window", nil, 0},
		{"empty latencies, real window", nil, time.Second},
		{"one latency, zero window", []time.Duration{time.Millisecond}, 0},
	}
	for _, tc := range cases {
		r := &LoadReport{
			Replicas: 2, MaxBatch: 4,
			PerModel: []ModelUsage{{Model: "small_cnn"}},
			PerShard: []ShardUsage{{Busy: time.Millisecond}},
		}
		if err := r.finish(backend, tc.latencies, nil, tc.window); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.CapacityPerSec <= 0 {
			t.Errorf("%s: capacity %.1f", tc.name, r.CapacityPerSec)
		}
		if len(tc.latencies) == 0 {
			if r.P50 != 0 || r.P99 != 0 || r.Max != 0 {
				t.Errorf("%s: nonzero percentiles %v/%v/%v", tc.name, r.P50, r.P99, r.Max)
			}
			if r.Histogram != nil {
				t.Errorf("%s: histogram %v for no samples", tc.name, r.Histogram)
			}
		}
		if tc.window == 0 {
			if r.Utilization != 0 || r.PerShard[0].Utilization != 0 {
				t.Errorf("%s: utilization computed with zero window", tc.name)
			}
			if r.PerModel[0].ThroughputPerSec != 0 {
				t.Errorf("%s: per-model throughput with zero window", tc.name)
			}
		}
	}
}

// TestCapacityWeightsByServedShare: a multi-model run's capacity bound
// is the served-share weighted harmonic combination of the per-model
// bounds, landing strictly between them.
func TestCapacityWeightsByServedShare(t *testing.T) {
	backend := twoModelBackend(t, 1)
	stI, err := backend.ServiceTime("inception_v3", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	stR, err := backend.ServiceTime("resnet_18", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &LoadReport{
		Replicas: 1, MaxBatch: 4,
		PerModel: []ModelUsage{
			{Model: "inception_v3", Served: 100},
			{Model: "resnet_18", Served: 100},
		},
	}
	if err := r.finish(backend, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	capI := 4 / stI.Seconds()
	capR := 4 / stR.Seconds()
	lo, hi := min(capI, capR), max(capI, capR)
	if r.CapacityPerSec <= lo || r.CapacityPerSec >= hi {
		t.Fatalf("mixed capacity %.2f outside per-model bounds (%.2f, %.2f)", r.CapacityPerSec, lo, hi)
	}
}
