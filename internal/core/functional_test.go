package core

import (
	"math/rand"
	"strings"
	"testing"

	"neuralcache/internal/nn"
	"neuralcache/internal/tensor"
)

// smallSystem builds a single-slice system: functional results are
// identical on any geometry (lockstep semantics), and one slice keeps the
// instantiated cache small.
func smallSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(DefaultConfig().WithSlices(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func randQuant(s tensor.Shape, seed int64) *tensor.Quant {
	q := tensor.NewQuant(s, 1.0/255)
	r := rand.New(rand.NewSource(seed))
	for i := range q.Data {
		q.Data[i] = uint8(r.Intn(256))
	}
	return q
}

// TestFunctionalMatchesReferenceSmallCNN is the central integration test:
// the bit-serial in-cache execution must reproduce the integer reference
// executor bit for bit through convolutions, pooling, ReLU, quantization
// and the classifier.
func TestFunctionalMatchesReferenceSmallCNN(t *testing.T) {
	sys := smallSystem(t)
	net := nn.SmallCNN()
	net.InitWeights(21)
	in := randQuant(net.Input, 77)

	refOut, refTr, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output.Shape != refOut.Shape || got.Output.Scale != refOut.Scale {
		t.Fatalf("output meta: got %v/%g, want %v/%g",
			got.Output.Shape, got.Output.Scale, refOut.Shape, refOut.Scale)
	}
	for i := range refOut.Data {
		if got.Output.Data[i] != refOut.Data[i] {
			t.Fatalf("output byte %d: in-cache %d, reference %d", i, got.Output.Data[i], refOut.Data[i])
		}
	}
	if len(got.Trace.Logits) != len(refTr.Logits) {
		t.Fatalf("logits length %d vs %d", len(got.Trace.Logits), len(refTr.Logits))
	}
	for i := range refTr.Logits {
		if got.Trace.Logits[i] != refTr.Logits[i] {
			t.Fatalf("logit %d: in-cache %d, reference %d", i, got.Trace.Logits[i], refTr.Logits[i])
		}
	}
	if got.Stats.ComputeCycles == 0 {
		t.Error("no compute cycles recorded — did anything run in-array?")
	}
	if got.ArraysUsed == 0 {
		t.Error("no arrays used")
	}
}

// TestFunctionalMatchesReferenceBranchy covers the concat-rescale path and
// the true in-array divider (the 12×12 global pool).
func TestFunctionalMatchesReferenceBranchy(t *testing.T) {
	sys := smallSystem(t)
	net := nn.BranchyCNN()
	net.InitWeights(5)
	in := randQuant(net.Input, 13)

	refOut, refTr, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refOut.Data {
		if got.Output.Data[i] != refOut.Data[i] {
			t.Fatalf("output byte %d: in-cache %d, reference %d", i, got.Output.Data[i], refOut.Data[i])
		}
	}
	// The CPU-side decisions must be identical integers.
	if len(got.Trace.Convs) != len(refTr.Convs) {
		t.Fatalf("decisions %d vs %d", len(got.Trace.Convs), len(refTr.Convs))
	}
	for i, d := range refTr.Convs {
		g := got.Trace.Convs[i]
		if g.Name != d.Name || g.MaxAcc != d.MaxAcc || g.Requant != d.Requant {
			t.Errorf("decision %s: got max=%d rq=%+v, want max=%d rq=%+v",
				d.Name, g.MaxAcc, g.Requant, d.MaxAcc, d.Requant)
		}
	}
	if len(got.Trace.Rescales) != len(refTr.Rescales) {
		t.Errorf("rescales %d vs %d", len(got.Trace.Rescales), len(refTr.Rescales))
	}
}

// TestFunctionalSplitFilter covers filter splitting with a 5×5 kernel
// (25 bytes > 9 → 3 segments).
func TestFunctionalSplitFilter(t *testing.T) {
	sys := smallSystem(t)
	net := &nn.Network{
		Name:  "split5x5",
		Input: tensor.Shape{H: 9, W: 9, C: 3},
		Layers: []nn.Layer{
			&nn.Conv2D{LayerName: "c5", LayerGroup: "c5", R: 5, S: 5, Cin: 3, Cout: 4,
				Stride: 1, PadH: 2, PadW: 2, ReLU: true},
			&nn.Conv2D{LayerName: "logits", LayerGroup: "logits", R: 1, S: 1, Cin: 4, Cout: 3,
				Stride: 1, IsLogits: true},
		},
	}
	net.InitWeights(9)
	in := randQuant(net.Input, 3)
	refOut, _, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refOut.Data {
		if got.Output.Data[i] != refOut.Data[i] {
			t.Fatalf("split-filter output %d: in-cache %d, reference %d", i, got.Output.Data[i], refOut.Data[i])
		}
	}
}

// TestFunctionalStridedConv covers stride-2 valid convolutions (the grid
// reductions of the big model).
func TestFunctionalStridedConv(t *testing.T) {
	sys := smallSystem(t)
	net := &nn.Network{
		Name:  "strided",
		Input: tensor.Shape{H: 11, W: 11, C: 5},
		Layers: []nn.Layer{
			&nn.Conv2D{LayerName: "s2", LayerGroup: "s2", R: 3, S: 3, Cin: 5, Cout: 6,
				Stride: 2, ReLU: true},
			&nn.Pool{LayerName: "mp", LayerGroup: "mp", Kind: nn.MaxPool, R: 3, S: 3, Stride: 2},
		},
	}
	net.InitWeights(17)
	in := randQuant(net.Input, 29)
	refOut, _, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refOut.Data {
		if got.Output.Data[i] != refOut.Data[i] {
			t.Fatalf("strided output %d: in-cache %d, reference %d", i, got.Output.Data[i], refOut.Data[i])
		}
	}
}

func TestFunctionalRejectsWrongInput(t *testing.T) {
	sys := smallSystem(t)
	net := nn.SmallCNN()
	net.InitWeights(1)
	if _, err := sys.RunFunctional(net, randQuant(tensor.Shape{H: 2, W: 2, C: 1}, 1)); err == nil {
		t.Error("wrong input shape accepted")
	}
}

// TestFunctionalDeterministic: two runs produce identical bytes and
// identical emergent cycle counts.
func TestFunctionalDeterministic(t *testing.T) {
	sys := smallSystem(t)
	net := nn.SmallCNN()
	net.InitWeights(4)
	in := randQuant(net.Input, 4)
	a, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Output.Data {
		if a.Output.Data[i] != b.Output.Data[i] {
			t.Fatal("non-deterministic functional output")
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("non-deterministic cycle counts: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestFunctionalMatchesReferenceBatchNorm covers the §IV-D batch-norm
// sequence: in-array 16×16 multiply, rounding add, row-offset shift,
// per-channel beta add and MSB-masked ReLU must reproduce the reference's
// 32-bit intermediates and the final requantized bytes exactly.
func TestFunctionalMatchesReferenceBatchNorm(t *testing.T) {
	sys := smallSystem(t)
	net := nn.BNNet()
	net.InitWeights(31)
	in := randQuant(net.Input, 41)
	refOut, refTr, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refOut.Data {
		if got.Output.Data[i] != refOut.Data[i] {
			t.Fatalf("output byte %d: in-cache %d, reference %d", i, got.Output.Data[i], refOut.Data[i])
		}
	}
	// The batch-norm decision (max intermediate + requant scalars) must be
	// identical integers.
	var refBN, gotBN *nn.ConvDecision
	for _, d := range refTr.Convs {
		if d.Name == "bn1" {
			refBN = d
		}
	}
	for _, d := range got.Trace.Convs {
		if d.Name == "bn1" {
			gotBN = d
		}
	}
	if refBN == nil || gotBN == nil {
		t.Fatal("bn1 decision missing")
	}
	if gotBN.MaxAcc != refBN.MaxAcc || gotBN.Requant != refBN.Requant {
		t.Errorf("bn decision: got max=%d rq=%+v, want max=%d rq=%+v",
			gotBN.MaxAcc, gotBN.Requant, refBN.MaxAcc, refBN.Requant)
	}
}

// TestFunctionalMatchesReferenceResNet covers the residual shortcut path:
// identity and strided-projection blocks whose element-wise adds run
// in-array.
func TestFunctionalMatchesReferenceResNet(t *testing.T) {
	sys := smallSystem(t)
	net := nn.SmallResNet()
	net.InitWeights(71)
	in := randQuant(net.Input, 83)
	refOut, refTr, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refOut.Data {
		if got.Output.Data[i] != refOut.Data[i] {
			t.Fatalf("output byte %d: in-cache %d, reference %d", i, got.Output.Data[i], refOut.Data[i])
		}
	}
	for i := range refTr.Logits {
		if got.Trace.Logits[i] != refTr.Logits[i] {
			t.Fatalf("logit %d: in-cache %d, reference %d", i, got.Trace.Logits[i], refTr.Logits[i])
		}
	}
	// The residual combine decisions must match integer for integer.
	for _, name := range []string{"Block1", "Block2"} {
		var refD, gotD *nn.ConvDecision
		for _, d := range refTr.Convs {
			if d.Name == name {
				refD = d
			}
		}
		for _, d := range got.Trace.Convs {
			if d.Name == name {
				gotD = d
			}
		}
		if refD == nil || gotD == nil {
			t.Fatalf("%s decision missing", name)
		}
		if gotD.MaxAcc != refD.MaxAcc || gotD.Requant != refD.Requant {
			t.Errorf("%s: got max=%d rq=%+v, want max=%d rq=%+v",
				name, gotD.MaxAcc, gotD.Requant, refD.MaxAcc, refD.Requant)
		}
	}
}

// TestResNet18Estimate is the extension result: ResNet-18 priced on the
// modeled cache. Its filter footprint is half Inception's, so filter
// loading and total latency land proportionally lower.
func TestResNet18Estimate(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Estimate(nn.ResNet18(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := rep.Latency() * 1e3
	if ms < 1.5 || ms > 5 {
		t.Errorf("ResNet-18 latency %.2f ms outside plausible range", ms)
	}
	inc, err := sys.Estimate(nn.InceptionV3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency() >= inc.Latency() {
		t.Errorf("ResNet-18 (%.2f ms) not faster than Inception v3 (%.2f ms)",
			ms, inc.Latency()*1e3)
	}
	if rep.Seconds[PhaseQuant] <= 0 {
		t.Error("residual combines charged no time")
	}
}

// TestFunctionalRejectsWideInputs: a layer that declares 4-bit
// activations returns an error, not a panic, when its input bytes do not
// fit — in the resident layout (3×3, inputs packed once per layer) and
// in the streamed layout (packed 1×1).
func TestFunctionalRejectsWideInputs(t *testing.T) {
	for _, c := range []*nn.Conv2D{
		{LayerName: "resident", LayerGroup: "c", R: 3, S: 3, Cin: 4, Cout: 4, Stride: 1, PadH: 1, PadW: 1, ActBits: 4},
		{LayerName: "streamed", LayerGroup: "c", R: 1, S: 1, Cin: 8, Cout: 4, Stride: 1, ActBits: 4},
	} {
		net := &nn.Network{Name: c.LayerName, Input: tensor.Shape{H: 4, W: 4, C: c.Cin}, Layers: []nn.Layer{c}}
		net.InitWeights(1)
		in := tensor.NewQuant(net.Input, 1.0/255)
		for i := range in.Data {
			in.Data[i] = 0x0f
		}
		if _, err := smallSystem(t).RunFunctional(net, in); err != nil {
			t.Fatalf("%s: in-range input rejected: %v", c.LayerName, err)
		}
		in.Data[len(in.Data)/2] = 0x10
		if _, err := smallSystem(t).RunFunctional(net, in); err == nil || !strings.Contains(err.Error(), "exceeds ActBits=4") {
			t.Errorf("%s: 5-bit input with ActBits=4: err %v", c.LayerName, err)
		}
	}
}
