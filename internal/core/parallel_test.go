package core

import (
	"fmt"
	"runtime"
	"testing"

	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
)

// Tests for the parallel functional engine: the worker pool must be an
// invisible implementation detail. For every verification network, every
// worker count must produce byte-identical outputs, traces, emergent
// cycle stats and array usage, all equal to the single-worker run and to
// the integer reference executor.

func systemWithWorkers(t *testing.T, workers int) *System {
	t.Helper()
	cfg := DefaultConfig().WithSlices(1)
	cfg.Workers = workers
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// goldenNets returns the verification networks with seeded weights and
// seeded inputs: the LeNet-scale SmallCNN, a residual (ResNet-block)
// network, the Inception-branch network, and the 512-lane WideCNN that
// spills convolutions across array pairs.
func goldenNets() []struct {
	net *nn.Network
	in  *tensor.Quant
} {
	small := nn.SmallCNN()
	small.InitWeights(21)
	res := nn.SmallResNet()
	res.InitWeights(71)
	branchy := nn.BranchyCNN()
	branchy.InitWeights(5)
	wide := nn.WideCNN()
	wide.InitWeights(11)
	return []struct {
		net *nn.Network
		in  *tensor.Quant
	}{
		{small, randQuant(small.Input, 77)},
		{res, randQuant(res.Input, 83)},
		{branchy, randQuant(branchy.Input, 13)},
		{wide, randQuant(wide.Input, 19)},
	}
}

func tracesEqual(t *testing.T, label string, got, want *nn.Trace) {
	t.Helper()
	if len(got.Convs) != len(want.Convs) {
		t.Fatalf("%s: %d conv decisions, want %d", label, len(got.Convs), len(want.Convs))
	}
	for i, w := range want.Convs {
		g := got.Convs[i]
		if g.Name != w.Name || g.AccScale != w.AccScale || g.MaxAcc != w.MaxAcc ||
			g.Requant != w.Requant || g.OutScale != w.OutScale {
			t.Fatalf("%s: conv decision %d differs: got %+v want %+v", label, i, g, w)
		}
		if len(g.Bias) != len(w.Bias) {
			t.Fatalf("%s: conv decision %d bias length %d vs %d", label, i, len(g.Bias), len(w.Bias))
		}
		for j := range w.Bias {
			if g.Bias[j] != w.Bias[j] {
				t.Fatalf("%s: conv decision %d bias[%d] %d vs %d", label, i, j, g.Bias[j], w.Bias[j])
			}
		}
	}
	if len(got.Rescales) != len(want.Rescales) {
		t.Fatalf("%s: %d rescales, want %d", label, len(got.Rescales), len(want.Rescales))
	}
	for i, w := range want.Rescales {
		if got.Rescales[i] != w {
			t.Fatalf("%s: rescale %d differs: got %+v want %+v", label, i, got.Rescales[i], w)
		}
	}
	if len(got.Logits) != len(want.Logits) {
		t.Fatalf("%s: %d logits, want %d", label, len(got.Logits), len(want.Logits))
	}
	for i, w := range want.Logits {
		if got.Logits[i] != w {
			t.Fatalf("%s: logit %d: got %d want %d", label, i, got.Logits[i], w)
		}
	}
}

// TestParallelGoldenEquivalence is the golden fence around the parallel
// refactor: for every verification network, the parallel engine at
// several worker counts must be bit-exact against both the sequential
// engine (Workers = 1) and the integer reference executor.
func TestParallelGoldenEquivalence(t *testing.T) {
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, g := range goldenNets() {
		refOut, refTr, err := nn.RunQuant(g.net, g.in, nn.QuantOptions{})
		if err != nil {
			t.Fatalf("%s: reference: %v", g.net.Name, err)
		}
		baseline, err := systemWithWorkers(t, 1).RunFunctional(g.net, g.in)
		if err != nil {
			t.Fatalf("%s: sequential run: %v", g.net.Name, err)
		}
		for i := range refOut.Data {
			if baseline.Output.Data[i] != refOut.Data[i] {
				t.Fatalf("%s: sequential output byte %d: in-cache %d, reference %d",
					g.net.Name, i, baseline.Output.Data[i], refOut.Data[i])
			}
		}
		tracesEqual(t, g.net.Name+" sequential-vs-reference", baseline.Trace, refTr)

		for _, w := range workerCounts {
			label := fmt.Sprintf("%s workers=%d", g.net.Name, w)
			got, err := systemWithWorkers(t, w).RunFunctional(g.net, g.in)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Output.Shape != baseline.Output.Shape || got.Output.Scale != baseline.Output.Scale {
				t.Fatalf("%s: output meta differs", label)
			}
			for i := range baseline.Output.Data {
				if got.Output.Data[i] != baseline.Output.Data[i] {
					t.Fatalf("%s: output byte %d differs from sequential", label, i)
				}
			}
			if got.Stats != baseline.Stats {
				t.Fatalf("%s: stats %+v differ from sequential %+v", label, got.Stats, baseline.Stats)
			}
			if got.ArraysUsed != baseline.ArraysUsed {
				t.Fatalf("%s: ArraysUsed %d differs from sequential %d", label, got.ArraysUsed, baseline.ArraysUsed)
			}
			if got.Fabric != baseline.Fabric || got.FabricCycles != baseline.FabricCycles {
				t.Fatalf("%s: fabric ledger differs from sequential", label)
			}
			tracesEqual(t, label, got.Trace, baseline.Trace)
		}
	}
}

// TestFunctionalWideConv locks in the lifted single-array restriction: a
// convolution with 512 lanes spills across an array pair, its cross-array
// partial-sum reduce is routed over the interconnect, and the result is
// still bit-exact against the reference executor.
func TestFunctionalWideConv(t *testing.T) {
	net := nn.WideCNN()
	net.InitWeights(11)
	in := randQuant(net.Input, 19)
	refOut, refTr, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := smallSystem(t).RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refOut.Data {
		if got.Output.Data[i] != refOut.Data[i] {
			t.Fatalf("wide conv output byte %d: in-cache %d, reference %d", i, got.Output.Data[i], refOut.Data[i])
		}
	}
	tracesEqual(t, "wide-conv", got.Trace, refTr)
	if got.Fabric.BusBytes == 0 || got.FabricCycles == 0 {
		t.Errorf("spilled convolution charged no interconnect traffic: %+v / %d cycles",
			got.Fabric, got.FabricCycles)
	}
	if got.ArraysUsed < 2 {
		t.Errorf("spilled convolution used %d arrays, want ≥ 2", got.ArraysUsed)
	}
}

// TestFunctionalWorkersZeroMeansAuto: the default Workers = 0 resolves to
// GOMAXPROCS and matches the sequential result.
func TestFunctionalWorkersZeroMeansAuto(t *testing.T) {
	net := nn.SmallCNN()
	net.InitWeights(4)
	in := randQuant(net.Input, 4)
	auto, err := systemWithWorkers(t, 0).RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := systemWithWorkers(t, 1).RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Output.Data {
		if auto.Output.Data[i] != seq.Output.Data[i] {
			t.Fatalf("auto-workers output byte %d differs from sequential", i)
		}
	}
	if auto.Stats != seq.Stats || auto.ArraysUsed != seq.ArraysUsed {
		t.Fatalf("auto-workers stats/arrays differ: %+v/%d vs %+v/%d",
			auto.Stats, auto.ArraysUsed, seq.Stats, seq.ArraysUsed)
	}
}

// TestFunctionalFaultyParallelDeterministic: fault injection lands on the
// same ordinals at every worker count, so a faulty run is just as
// deterministic as a healthy one.
func TestFunctionalFaultyParallelDeterministic(t *testing.T) {
	net := nn.SmallCNN()
	net.InitWeights(55)
	in := randQuant(net.Input, 66)
	faulty := func(workers int) *FunctionalResult {
		t.Helper()
		sys := systemWithWorkers(t, workers)
		res, err := sys.RunFunctionalFaulty(net, in, func(ordinal int, a *sram.Array) {
			if ordinal < 4 {
				a.InjectStuckAt(79, ordinal*3, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := faulty(1)
	par := faulty(4)
	for i := range seq.Output.Data {
		if par.Output.Data[i] != seq.Output.Data[i] {
			t.Fatalf("faulty output byte %d differs between worker counts", i)
		}
	}
	if par.Stats != seq.Stats {
		t.Fatalf("faulty stats differ: %+v vs %+v", par.Stats, seq.Stats)
	}
}

// TestWorkerPanicReachesCaller: a panic inside a pool worker (here a
// fault injector) is re-raised on the goroutine that called the engine,
// where a serving executor can recover it, instead of killing the
// process from a goroutine nobody can recover.
func TestWorkerPanicReachesCaller(t *testing.T) {
	net := nn.SmallCNN()
	net.InitWeights(1)
	in := randQuant(net.Input, 1)
	defer func() {
		if p := recover(); p != "injector failed" {
			t.Fatalf("recovered %v, want the worker's panic", p)
		}
	}()
	_, _ = systemWithWorkers(t, 4).RunFunctionalFaulty(net, in, func(ordinal int, _ *sram.Array) {
		if ordinal == 5 {
			panic("injector failed")
		}
	})
	t.Fatal("the engine returned after a worker panicked")
}

// TestConfigRejectsNegativeWorkers: the Workers knob validates.
func TestConfigRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig().WithSlices(1)
	cfg.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative Workers accepted")
	}
}
