package serve

import (
	"fmt"
	"strings"
	"time"

	"neuralcache/internal/report"
)

// GroupSweepPoint is one group size's row of a SweepGroups frontier: the
// Table IV-style latency/throughput/reload trade-off at k slices per
// replica group.
type GroupSweepPoint struct {
	// GroupSize is the slices per replica group at this point.
	GroupSize int `json:"group_size"`
	// Groups is the number of replica groups scheduled on (Slices ×
	// Sockets / GroupSize unless Options.Replicas narrowed it).
	Groups int `json:"groups"`
	// P50 / P99 / Max are the end-to-end request latency percentiles of
	// the run.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
	// BatchServiceTime is the modeled warm service time of a full
	// MaxBatch batch of the default model on one k-slice group — the
	// per-image latency lever bigger groups pull down.
	BatchServiceTime time.Duration `json:"batch_service_ns"`
	// ReloadTime is the default model's §IV-E weight-staging cost onto
	// one group at this k (charged per cold dispatch; one reload warms
	// all k slices).
	ReloadTime       time.Duration `json:"reload_ns"`
	Served           int           `json:"served"`
	Rejected         int           `json:"rejected"`
	ThroughputPerSec float64       `json:"throughput_per_sec"`
	CapacityPerSec   float64       `json:"capacity_per_sec"`
	WarmDispatches   int           `json:"warm_dispatches"`
	ColdDispatches   int           `json:"cold_dispatches"`
	Utilization      float64       `json:"utilization"`
	// Report is the full per-run LoadReport backing this row.
	Report *LoadReport `json:"report,omitempty"`
}

// SweepGroups runs the same load at each replica group size in ks and
// returns one frontier point per k — the Table IV-style trade-off: as k
// grows, per-image latency and cold-dispatch (reload) counts fall while
// throughput tracks the shrinking group count. opts.GroupSize and
// opts.Replicas are overridden per point (all groups of each k are
// used); every k must divide the system's slice count. Virtual clock,
// deterministic: the same backend, options, load and ks produce an
// identical sweep on every run.
func SweepGroups(backend Backend, opts Options, load Load, ks []int) ([]GroupSweepPoint, error) {
	return sweep(backend, opts, load, ks, "group size",
		func(o *Options, k int) error {
			o.GroupSize = k
			o.Replicas = 0 // all groups of this size
			return nil
		},
		func(k int, rep *LoadReport) (GroupSweepPoint, error) {
			st, err := backend.ServiceTime("", rep.MaxBatch, k)
			if err != nil {
				return GroupSweepPoint{}, err
			}
			rel, err := backend.ReloadTime("", k)
			if err != nil {
				return GroupSweepPoint{}, err
			}
			return GroupSweepPoint{
				GroupSize:        k,
				Groups:           rep.Replicas,
				P50:              rep.P50,
				P99:              rep.P99,
				Max:              rep.Max,
				BatchServiceTime: st,
				ReloadTime:       rel,
				Served:           rep.Served,
				Rejected:         rep.Rejected,
				ThroughputPerSec: rep.ThroughputPerSec,
				CapacityPerSec:   rep.CapacityPerSec,
				WarmDispatches:   rep.WarmDispatches,
				ColdDispatches:   rep.ColdDispatches,
				Utilization:      rep.Utilization,
				Report:           rep,
			}, nil
		})
}

// sweep is the loop under SweepGroups and SweepCache: it simulates the
// load once per value of the knob — on opts as set adjusts them, set
// failing the sweep for a value the knob cannot take — and turns each
// run into a row. An empty or repeated value fails the sweep, as does
// any run, wrapped with the knob and value it ran at.
func sweep[P any](backend Backend, opts Options, load Load, values []int, knob string,
	set func(*Options, int) error, row func(int, *LoadReport) (P, error)) ([]P, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("serve: empty %s sweep", strings.ReplaceAll(knob, " ", "-"))
	}
	seen := make(map[int]bool, len(values))
	out := make([]P, 0, len(values))
	for _, v := range values {
		o := opts
		if err := set(&o, v); err != nil {
			return nil, err
		}
		if seen[v] {
			return nil, fmt.Errorf("serve: %s %d repeated in sweep", knob, v)
		}
		seen[v] = true
		rep, err := Simulate(backend, o, load)
		if err != nil {
			return nil, fmt.Errorf("serve: sweep at %s %d: %w", knob, v, err)
		}
		p, err := row(v, rep)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// SweepTable renders a sweep as the CLI's frontier table.
func SweepTable(points []GroupSweepPoint) string {
	t := report.NewTable("Replica-group frontier (Table IV style)",
		"k", "Groups", "BatchSvc", "Reload", "p50", "p99", "Thru/s", "Cap/s", "Warm", "Cold", "Util")
	for _, p := range points {
		t.Add(fmt.Sprint(p.GroupSize), fmt.Sprint(p.Groups),
			p.BatchServiceTime.Round(time.Microsecond).String(),
			p.ReloadTime.Round(time.Microsecond).String(),
			p.P50.Round(time.Microsecond).String(),
			p.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f", p.ThroughputPerSec),
			fmt.Sprintf("%.1f", p.CapacityPerSec),
			fmt.Sprint(p.WarmDispatches), fmt.Sprint(p.ColdDispatches),
			report.Pct(p.Utilization))
	}
	return t.String()
}
