package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"neuralcache/internal/interconnect"
	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun is everything observable about one bit-exact run: the output
// bytes (as a SHA-256), the logits, every cycle and fabric ledger, the
// zero-skip report and the host-side quantization trace.
type goldenRun struct {
	Case          string
	Workers       int
	OutputSHA256  string
	Logits        []int32
	ComputeCycles uint64
	AccessCycles  uint64
	ArraysUsed    int
	Fabric        interconnect.Traffic
	FabricCycles  uint64
	Skip          SkipReport
	Convs         []*nn.ConvDecision
	Rescales      []nn.RescaleDecision
}

// goldenCases are the engine paths the golden locks: the verification
// nets (resident, packed 1×1 and 512-lane spilled convolutions, pooling,
// residual adds, concat rescales), a split 5×5 filter, narrow weights,
// zero-slice skipping and one stuck-at fault campaign.
func goldenCases() []struct {
	name   string
	net    *nn.Network
	in     *tensor.Quant
	skip   bool
	inject FaultInjector
} {
	type gc = struct {
		name   string
		net    *nn.Network
		in     *tensor.Quant
		skip   bool
		inject FaultInjector
	}
	var cases []gc
	for _, g := range goldenNets() {
		cases = append(cases, gc{name: g.net.Name, net: g.net, in: g.in})
	}
	split := &nn.Network{
		Name:  "split5x5",
		Input: tensor.Shape{H: 9, W: 9, C: 3},
		Layers: []nn.Layer{
			&nn.Conv2D{LayerName: "c5", LayerGroup: "c5", R: 5, S: 5, Cin: 3, Cout: 4,
				Stride: 1, PadH: 2, PadW: 2, ReLU: true},
			&nn.Conv2D{LayerName: "logits", LayerGroup: "logits", R: 1, S: 1, Cin: 4, Cout: 3,
				Stride: 1, IsLogits: true},
		},
	}
	split.InitWeights(9)
	int4 := nn.Int4CNN()
	int4.InitWeights(3)
	sparse := nn.SparseCNN()
	sparse.InitWeights(1)
	faulty := nn.SmallCNN()
	faulty.InitWeights(55)
	return append(cases,
		gc{name: "split5x5", net: split, in: randQuant(split.Input, 3)},
		gc{name: "int4_cnn", net: int4, in: randQuant(int4.Input, 8)},
		gc{name: "sparse_cnn_skip", net: sparse, in: randQuant(sparse.Input, 2), skip: true},
		gc{name: "small_cnn_faulty", net: faulty, in: randQuant(faulty.Input, 66),
			inject: func(ordinal int, a *sram.Array) {
				if ordinal < 6 {
					a.InjectStuckAt(79, ordinal*3, 1)
				}
				if ordinal == 2 {
					a.InjectDeadLane(17)
				}
			}},
	)
}

// TestFunctionalGolden locks the bit-exact engine byte for byte at one
// and four workers: outputs, logits, cycles, arrays, fabric, skip counters
// and the trace must match the committed golden (rerun with -update to
// rewrite it on purpose).
func TestFunctionalGolden(t *testing.T) {
	var runs []goldenRun
	for _, c := range goldenCases() {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig().WithSlices(1)
			cfg.Workers = workers
			cfg.SkipZeroSlices = c.skip
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.RunFunctionalFaulty(c.net, c.in, c.inject)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			sum := sha256.Sum256(res.Output.Data)
			runs = append(runs, goldenRun{
				Case: c.name, Workers: workers,
				OutputSHA256:  hex.EncodeToString(sum[:]),
				Logits:        res.Trace.Logits,
				ComputeCycles: res.Stats.ComputeCycles,
				AccessCycles:  res.Stats.AccessCycles,
				ArraysUsed:    res.ArraysUsed,
				Fabric:        res.Fabric,
				FabricCycles:  res.FabricCycles,
				Skip:          res.Skip,
				Convs:         res.Trace.Convs,
				Rescales:      res.Trace.Rescales,
			})
		}
	}
	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_functional.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from the committed golden (rerun with -update if intended)", path)
	}
}
