package neuralcache

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestRunWithNilFaultsEqualsRun: the fault path with no faults must be
// exactly the plain Run — the dedup contract between the two entry
// points.
func TestRunWithNilFaultsEqualsRun(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() *Model{SmallCNN, SmallResNet} {
		m := build()
		m.InitWeights(3)
		h, w, c := m.InputShape()
		in := NewTensor(h, w, c, 1.0/255)
		r := rand.New(rand.NewSource(4))
		for i := range in.Data {
			in.Data[i] = uint8(r.Intn(256))
		}

		plain, err := sys.Run(m, in)
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := sys.RunWithFaults(m, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Output.Data, faulty.Output.Data) {
			t.Fatalf("%s: outputs differ between Run and fault-free RunWithFaults", m.Name())
		}
		if !reflect.DeepEqual(plain, faulty) {
			t.Fatalf("%s: results differ between Run and fault-free RunWithFaults:\n%+v\nvs\n%+v",
				m.Name(), plain, faulty)
		}
	}
}

// TestRunInputShapeValidation: both entry points reject mis-shaped
// inputs with the same error text (the shared Model.CheckInput).
func TestRunInputShapeValidation(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := SmallCNN()
	m.InitWeights(1)
	bad := NewTensor(1, 1, 1, 1)
	_, errRun := sys.Run(m, bad)
	_, errFaulty := sys.RunWithFaults(m, bad, nil)
	if errRun == nil || errFaulty == nil {
		t.Fatal("mis-shaped input accepted")
	}
	if errRun.Error() != errFaulty.Error() {
		t.Fatalf("divergent shape errors: %q vs %q", errRun, errFaulty)
	}
}

// TestRunRejectsPoisonInputs: every malformed input and a model without
// weights return an error from both entry points — no panic, and no
// result with a nil error.
func TestRunRejectsPoisonInputs(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := SmallCNN()
	m.InitWeights(1)
	h, w, c := m.InputShape()
	good := func(mut func(*Tensor)) *Tensor {
		in := NewTensor(h, w, c, 1.0/255)
		mut(in)
		return in
	}
	cases := []struct {
		name  string
		model *Model
		in    *Tensor
	}{
		{"nil tensor", m, nil},
		{"wrong shape", m, NewTensor(h, w+1, c, 1.0/255)},
		{"short data", m, good(func(t *Tensor) { t.Data = t.Data[:len(t.Data)-1] })},
		{"long data", m, good(func(t *Tensor) { t.Data = append(t.Data, 0) })},
		{"zero scale", m, good(func(t *Tensor) { t.Scale = 0 })},
		{"negative scale", m, good(func(t *Tensor) { t.Scale = -1 })},
		{"NaN scale", m, good(func(t *Tensor) { t.Scale = math.NaN() })},
		{"infinite scale", m, good(func(t *Tensor) { t.Scale = math.Inf(1) })},
		{"no weights", SmallCNN(), good(func(*Tensor) {})},
	}
	for _, tc := range cases {
		if res, err := sys.Run(tc.model, tc.in); err == nil {
			t.Errorf("%s: Run returned %v with a nil error", tc.name, res != nil)
		}
		if res, err := sys.RunWithFaults(tc.model, tc.in, nil); err == nil {
			t.Errorf("%s: RunWithFaults returned %v with a nil error", tc.name, res != nil)
		}
	}
	for _, build := range []func() *Model{SmallCNN, SmallResNet, BranchyCNN, WideCNN, BNNet} {
		bare := build()
		h, w, c := bare.InputShape()
		if _, err := sys.Run(bare, NewTensor(h, w, c, 1.0/255)); err == nil {
			t.Errorf("%s without weights ran", bare.Name())
		}
	}
}

// TestModelByName: every advertised name builds, unknown names fail.
func TestModelByName(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatalf("ModelByName(%q): %v", name, err)
		}
		if m.Name() == "" {
			t.Fatalf("ModelByName(%q): empty model name", name)
		}
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}
