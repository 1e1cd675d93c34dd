package serve

import (
	"fmt"
	"time"

	"neuralcache/internal/report"
)

// CacheSweepPoint is one capacity's row of a SweepCache frontier: what
// the same reuse-heavy load looks like as the front-cache grows from
// disabled (capacity 0) upward. FreeCapacity marks the break-even rows
// — where memoized hits push sustained throughput past the no-cache
// replica-capacity bound, i.e. the cache is serving traffic the groups
// alone could not.
type CacheSweepPoint struct {
	// Capacity is the front-cache entry bound at this point; 0 is the
	// uncached baseline row.
	Capacity int `json:"capacity"`
	// HitRate is the run's observed hit fraction (hits over probes).
	HitRate float64 `json:"hit_rate"`
	// Hits / Misses / Evictions are the run's cache counters.
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Evictions int `json:"evictions"`
	// P50 / P99 are the end-to-end request latency percentiles; hits
	// complete in cacheHitLatency and drag both down as the rate rises.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// ThroughputPerSec is the run's sustained completion rate;
	// CapacityPerSec is the no-cache replica bound it is measured
	// against (identical on every row — the cache does not change the
	// hardware).
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	CapacityPerSec   float64 `json:"capacity_per_sec"`
	Served           int     `json:"served"`
	Rejected         int     `json:"rejected"`
	// FreeCapacity reports throughput strictly above the no-cache
	// capacity bound: the hit rate has crossed h* = 1 − C/λ and the
	// cache is, in effect, free replica capacity.
	FreeCapacity bool `json:"free_capacity"`
	// Report is the full per-run LoadReport backing this row.
	Report *LoadReport `json:"report,omitempty"`
}

// SweepCache runs the same load at each front-cache capacity in caps
// and returns one row per capacity — the break-even frontier answering
// "what hit rate turns the cache into free capacity". opts.Cache.Capacity
// is overridden per point (0 rows run uncached); all other cache knobs
// and the load (including its Reuse distribution) are held fixed.
// Virtual clock, deterministic: the same backend, options, load and
// caps produce an identical sweep on every run.
func SweepCache(backend Backend, opts Options, load Load, caps []int) ([]CacheSweepPoint, error) {
	return sweep(backend, opts, load, caps, "cache capacity",
		func(o *Options, c int) error {
			if c < 0 {
				return fmt.Errorf("serve: cache capacity %d in sweep (must be non-negative)", c)
			}
			o.Cache.Capacity = c
			return nil
		},
		func(c int, rep *LoadReport) (CacheSweepPoint, error) {
			return CacheSweepPoint{
				Capacity:         c,
				HitRate:          rep.CacheHitRate,
				Hits:             rep.CacheHits,
				Misses:           rep.CacheMisses,
				Evictions:        rep.CacheEvictions,
				P50:              rep.P50,
				P99:              rep.P99,
				ThroughputPerSec: rep.ThroughputPerSec,
				CapacityPerSec:   rep.CapacityPerSec,
				Served:           rep.Served,
				Rejected:         rep.Rejected,
				FreeCapacity:     rep.ThroughputPerSec > rep.CapacityPerSec,
				Report:           rep,
			}, nil
		})
}

// SweepCacheTable renders a cache sweep as the CLI's break-even table.
func SweepCacheTable(points []CacheSweepPoint) string {
	t := report.NewTable("Front-cache break-even frontier",
		"Cap", "HitRate", "Hits", "Evict", "p50", "p99", "Thru/s", "Cap/s", "Free?")
	for _, p := range points {
		free := ""
		if p.FreeCapacity {
			free = "yes"
		}
		t.Add(fmt.Sprint(p.Capacity), report.Pct(p.HitRate),
			fmt.Sprint(p.Hits), fmt.Sprint(p.Evictions),
			p.P50.Round(time.Microsecond).String(),
			p.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f", p.ThroughputPerSec),
			fmt.Sprintf("%.1f", p.CapacityPerSec),
			free)
	}
	return t.String()
}
