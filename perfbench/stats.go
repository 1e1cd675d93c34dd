package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"neuralcache"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

const mb = 1e6

// memSnap is the slice of runtime.MemStats the benchmark differences
// across a measured window.
type memSnap struct {
	alloc uint64 // cumulative bytes allocated
	gcs   uint32
}

func readMem() memSnap {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return memSnap{alloc: st.TotalAlloc, gcs: st.NumGC}
}

// cpuTime is the CPU time the process has used, user and system, on
// all its threads. Unlike wall time it leaves out the time a virtual
// machine's host takes the CPU away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ticks are the machine-wide CPU time counters of /proc/stat, in clock
// ticks summed over all CPUs.
type ticks struct{ steal, total uint64 }

// readTicks reads the counters; it returns zeros where /proc/stat is
// not readable, and then every steal share reads 0.
func readTicks() ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}
	}
	var t ticks
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return ticks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the CPU time since prev that the
// hypervisor gave to other guests.
func (t ticks) stealShare(prev ticks) float64 {
	return ratio(float64(t.steal-prev.steal), float64(t.total-prev.total))
}

// liveHeapMB forces a collection and returns the bytes still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / mb
}

// setupRounds is the fewest set-up builds a run times; setup_s is the
// median build time. One build takes well under a millisecond, and on a
// shared host the CPU's speed drifts by a factor of two over tenths of
// a second, so a run spreads its builds over its length: sim-fleet one
// after each pass, bitexact-reuse (which cannot pause its window) half
// before the warm-up and half after the window.
const setupRounds = 31

// timeSetup builds a set-up once, appending the build time in seconds
// to times, and releases it untimed.
func timeSetup[T any](times *[]float64, build func() (T, error), release func(T) error) error {
	t0 := time.Now()
	s, err := build()
	*times = append(*times, time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	return release(s)
}

// The paper's Inception v3 batch-1 figures on the 35 MB cache (§VI).
const (
	paperInceptionMs = 4.72
	paperInceptionJ  = 0.246
)

// fidelity records the modeled Inception v3 latency and energy beside
// the paper's, with their relative errors.
func fidelity(r *run) error {
	sys, err := neuralcache.New(neuralcache.DefaultConfig())
	if err != nil {
		return err
	}
	est, err := sys.Estimate(neuralcache.InceptionV3(), 1)
	if err != nil {
		return err
	}
	latMs := est.LatencySeconds * 1e3
	r.m["inception_latency_err_pct"] = 100 * math.Abs(latMs-paperInceptionMs) / paperInceptionMs
	r.m["inception_energy_err_pct"] = 100 * math.Abs(est.EnergyJ-paperInceptionJ) / paperInceptionJ
	r.info["fidelity"] = map[string]float64{
		"inception_latency_ms":       latMs,
		"paper_inception_latency_ms": paperInceptionMs,
		"inception_energy_j":         est.EnergyJ,
		"paper_inception_energy_j":   paperInceptionJ,
	}
	return nil
}
