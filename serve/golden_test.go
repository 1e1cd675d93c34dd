package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/plan"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScenarios are the Simulate paths the k=1 goldens do not reach:
// a planned run with the drift controller re-planning (the CI drift
// scenario at a smaller request count), a closed-loop mix run and a
// Zipf-reuse run behind the exact front-cache. Each is locked by its
// report JSON and its trace JSON.
func goldenScenarios(t testing.TB) []struct {
	name    string
	backend Backend
	opts    Options
	load    Load
} {
	t.Helper()
	inc, res := neuralcache.InceptionV3(), neuralcache.ResNet18()
	sys7 := newGroupSystem(t, 7)
	p, err := plan.Compute(sys7, []*neuralcache.Model{inc, res}, planShares(0.8, 0.2),
		plan.Options{GroupSize: 7, MaxBatch: 8, RatePerSec: 600})
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, 0)
	mix := func(a, b float64) []ModelShare {
		return []ModelShare{{Model: inc.Name(), Weight: a}, {Model: res.Name(), Weight: b}}
	}
	return []struct {
		name    string
		backend Backend
		opts    Options
		load    Load
	}{
		{
			name:    "planned_replan",
			backend: NewAnalyticBackend(sys7, inc, res),
			opts: Options{GroupSize: 7, MaxBatch: 8, MaxLinger: 5 * time.Millisecond,
				Plan: p, Replan: plan.ControllerConfig{Threshold: 0.15},
				TimelineInterval: 500 * time.Millisecond},
			load: Load{Rate: 600, Requests: 2400, Seed: 42, Poisson: true, Mix: mix(0.8, 0.2),
				MixSchedule: []MixShift{{At: 2400 * time.Second / 600 / 2, Mix: mix(0.2, 0.8)}}},
		},
		{
			name:    "closed_loop_mix",
			backend: NewAnalyticBackend(sys, inc, res),
			opts:    Options{MaxBatch: 8, MaxLinger: time.Millisecond},
			load: Load{Rate: 50, Requests: 1500, Seed: 5, Poisson: true, Concurrency: 64,
				Mix: mix(0.7, 0.3)},
		},
		{
			name:    "reuse_cache",
			backend: NewAnalyticBackend(sys, inc),
			opts:    Options{MaxBatch: 8, MaxLinger: time.Millisecond, Cache: CacheOptions{Capacity: 256}},
			load: Load{Rate: 3000, Requests: 2000, Seed: 9, Poisson: true,
				Reuse: Reuse{ZipfS: 1.1, Universe: 2048}},
		},
	}
}

// newGroupSystem is a default system whose configured replica group is
// k slices.
func newGroupSystem(t testing.TB, k int) *neuralcache.System {
	t.Helper()
	cfg := neuralcache.DefaultConfig()
	cfg.GroupSize = k
	sys, err := neuralcache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSimulateScenarioGoldens locks the planned, closed-loop and cached
// Simulate paths byte for byte: report and trace JSON must match the
// committed goldens (rerun with -update to rewrite them on purpose).
func TestSimulateScenarioGoldens(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		opts := sc.opts
		opts.Trace = NewTracer()
		rep, err := Simulate(sc.backend, opts, sc.load)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, '\n')
		files := map[string][]byte{
			"golden_sim_" + sc.name + ".json":       blob,
			"golden_sim_" + sc.name + "_trace.json": traceJSON(t, opts.Trace),
		}
		for name, got := range files {
			path := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s diverged from the committed golden (rerun with -update if intended)", name)
			}
		}
	}
}
