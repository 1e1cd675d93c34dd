// Command perfbench is the repository benchmark: it runs one named
// workload against the public entry points of package neuralcache and
// its serving tiers, checks every output, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON object
// on the last line of standard output.
//
//	bash perfbench/run.sh --workload bitexact-reuse --seed 1 --seconds 50 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a run with -trace 0 prints, in the order
// BENCHMARK.json declares them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms.light", "ms"},
	{"p90_ms.light", "ms"},
	{"p50_ms.heavy", "ms"},
	{"p90_ms.heavy", "ms"},
	{"success_frac", "ratio"},
	{"alloc_mb_per_req", "MB"},
	{"heap_live_mb", "MB"},
	{"inception_latency_err_pct", "%"},
	{"inception_energy_err_pct", "%"},
}

// perLayer lists the metrics a run with -trace 1 prints.
var perLayer = []metricDef{
	// The server's throughput with its queue at the bound. On a shared
	// 2-core host its spread over ten seeds reached 0.44 of its median,
	// more than any end-to-end bound may allow, so it is not gated.
	{"capacity_rps", "1/s"},
	{"serve.submit_us.p50", "us"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.queue_ms.p99", "ms"},
	{"serve.service_ms.p50", "ms"},
	{"serve.batch_size.mean", "count"},
	{"serve.cold_frac", "ratio"},
	{"serve.busy_frac", "ratio"},
	{"serve.dispatch_gap_ms.p50", "ms"},
	{"serve.rejected", "count"},
	{"serve.failed", "count"},
	{"cache.hit_frac", "ratio"},
	{"cache.hit_latency_us.p50", "us"},
	{"cache.inserts", "count"},
	{"cache.evictions", "count"},
	{"engine.run_ms.p50", "ms"},
	{"engine.run_ms.p99", "ms"},
	{"engine.alloc_mb_per_run", "MB"},
	{"runtime.gc_cycles_per_kreq", "count"},
	{"geometry.new_ms", "ms"},
	{"geometry.new_mb", "MB"},
	{"bitvec.pack64_ns", "ns"},
	{"bitvec.packplanes_ns", "ns"},
	{"sram.mulacc8_ns", "ns"},
	{"sram.write_elements8_ns", "ns"},
	{"sram.compute_cycles_per_req", "cycles"},
	{"sram.access_cycles_per_req", "cycles"},
	{"sram.arrays_per_req", "count"},
	{"analytic.estimate_inception_us", "us"},
	{"plan.compute_ms", "ms"},
	{"plan.replans", "count"},
	{"plan.restages", "count"},
	{"sim.node_ms_per_pass", "ms"},
	{"sim.fleet_ms_per_pass", "ms"},
	{"sim.node_alloc_mb", "MB"},
	{"sim.fleet_alloc_mb", "MB"},
	{"sim.node_cold_dispatches", "count"},
	{"sim.fleet_cold_dispatches", "count"},
	{"sim.fleet_lost", "count"},
	{"obs.trace_overhead_frac", "ratio"},
	{"obs.trace_events", "count"},
	{"gen.late_ms.p99", "ms"},
	{"gen.late_ms.max", "ms"},
	{"trace.p50_ms.light", "ms"},
	{"trace.p50_ms.heavy", "ms"},
	{"trace.p99_ms.light", "ms"},
	{"trace.p99_ms.heavy", "ms"},
	{"trace.spans", "count"},
}

// run is one benchmark invocation: its arguments, the metrics it
// measured and the facts about the run it reports alongside them.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	rec      *recorder // nil unless traced

	m    map[string]float64
	info map[string]any

	attempted, failed int
	// problems lists every failed correctness check; a run with any is
	// not correct.
	problems []string
}

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) error{
	"bitexact-reuse": runBitExact,
	"sim-fleet":      runSimFleet,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: bitexact-reuse or sim-fleet")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	body, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		m:        make(map[string]float64),
		info: map[string]any{
			"workload":   *workload,
			"seed":       *seed,
			"seconds":    *seconds,
			"trace":      *trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
	}
	if r.traced {
		r.rec = newRecorder()
	}
	if err := body(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := fidelity(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if r.traced {
		r.m["trace.p50_ms.light"] = r.m["p50_ms.light"]
		r.m["trace.p50_ms.heavy"] = r.m["p50_ms.heavy"]
		r.m["trace.spans"] = float64(r.rec.len())
		path, err := r.rec.write(r.workload, r.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		r.info["spans_file"] = path
		defs = perLayer
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		// A layer the workload does not exercise reads 0; every
		// end-to-end metric must have been measured.
		v, ok := r.m[d.name]
		if !ok && !r.traced {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s measured no %s\n", r.workload, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	r.info["problems"] = r.problems
	info, err := json.Marshal(map[string]any{"info": r.info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(info))
	fmt.Println(string(out))
	if !res.Correct {
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		os.Exit(1)
	}
}
