package serve

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"neuralcache"
)

// TestServerRejectsPoisonInputs: on the bit-exact server a malformed
// input fails at submission — it never reaches a batch, so it cannot
// fail batchmates or crash an executor — and a model without weights
// fails its batch with an error. Either way the server keeps serving.
func TestServerRejectsPoisonInputs(t *testing.T) {
	sys := newSystem(t, 0)
	m := neuralcache.SmallCNN()
	m.InitWeights(1)
	bare := neuralcache.SmallResNet() // no InitWeights
	srv, err := NewServer(NewBitExactBackend(sys, m, bare), Options{MaxBatch: 4, MaxLinger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h, w, c := m.InputShape()
	poison := func(mut func(*neuralcache.Tensor)) *neuralcache.Tensor {
		in := randomInput(m, 5, 0)
		mut(in)
		return in
	}
	cases := []struct {
		name  string
		model string
		in    *neuralcache.Tensor
	}{
		{"nil tensor", "", nil},
		{"wrong shape", "", neuralcache.NewTensor(h, w+1, c, 1.0/255)},
		{"short data", "", poison(func(t *neuralcache.Tensor) { t.Data = t.Data[:len(t.Data)-1] })},
		{"long data", "", poison(func(t *neuralcache.Tensor) { t.Data = append(t.Data, 0) })},
		{"zero scale", "", poison(func(t *neuralcache.Tensor) { t.Scale = 0 })},
		{"NaN scale", "", poison(func(t *neuralcache.Tensor) { t.Scale = math.NaN() })},
		{"infinite scale", "", poison(func(t *neuralcache.Tensor) { t.Scale = math.Inf(1) })},
		{"no weights", bare.Name(), randomInput(bare, 5, 0)},
	}
	ctx := context.Background()
	for _, tc := range cases {
		ch, err := srv.TrySubmitModel(ctx, tc.model, tc.in)
		if tc.model == "" {
			if err == nil {
				t.Errorf("%s: admitted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r := <-ch; r.Err == nil {
			t.Errorf("%s: served without an error", tc.name)
		}
	}
	// Still serving, and still bit-exact.
	in := randomInput(m, 5, 1)
	r, err := srv.Submit(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Result.Output.Data, want.Output.Data) {
		t.Fatal("served output differs from direct Run after poison inputs")
	}
	if st := srv.Stats(); st.Failed != 1 || st.Served != 1 {
		t.Fatalf("failed %d served %d, want 1 and 1", st.Failed, st.Served)
	}
}
