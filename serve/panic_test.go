package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"neuralcache"
)

// panicBackend is the analytic backend, except that a batch holding the
// marked input panics inside Execute.
type panicBackend struct {
	*AnalyticBackend
	poison *neuralcache.Tensor
	panics atomic.Int64
}

func (b *panicBackend) Execute(ctx context.Context, model string, inputs []*neuralcache.Tensor, cold bool, groupSize int) ([]*neuralcache.InferenceResult, error) {
	for _, in := range inputs {
		if in == b.poison {
			b.panics.Add(1)
			panic("poisoned input")
		}
	}
	return b.AnalyticBackend.Execute(ctx, model, inputs, cold, groupSize)
}

// TestServerContainsBackendPanics: a panic inside Backend.Execute, hit by
// one input submitted mid-LoadTest, fails only that batch — its requests
// count as failed with ErrBackendPanic, the trace records the panic, and
// the server keeps serving the rest of the load and later submissions.
// Every offered request is accounted for. Run under -race.
func TestServerContainsBackendPanics(t *testing.T) {
	m := neuralcache.SmallCNN()
	h, w, c := m.InputShape()
	backend := &panicBackend{
		AnalyticBackend: NewAnalyticBackend(newSystem(t, 1), m),
		poison:          neuralcache.NewTensor(h, w, c, 1.0/255),
	}
	tr := NewTracer()
	srv, err := NewServer(backend, Options{MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 256, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const requests, marked = 1000, 500
	rep, err := LoadTest(srv, Load{Rate: 5000, Requests: requests, Seed: 3, Poisson: true},
		func(i int, _ string) *neuralcache.Tensor {
			if i == marked {
				return backend.poison
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := backend.panics.Load(); n != 1 {
		t.Fatalf("backend panicked %d times, want 1", n)
	}
	st := srv.Stats()
	if st.Failed == 0 || st.Failed > 4 {
		t.Errorf("failed %d requests, want the poisoned batch (1 to MaxBatch=4)", st.Failed)
	}
	if st.Served+st.Rejected+st.Failed+st.Canceled != uint64(rep.Offered) {
		t.Errorf("stats do not account for all %d offered: %+v", rep.Offered, st)
	}
	if rep.Served < requests/2 {
		t.Errorf("served only %d of %d requests around one panicking batch", rep.Served, requests)
	}
	marks := 0
	for _, e := range tr.Events() {
		if e.Name == "backend panic" {
			marks++
		}
	}
	if marks != 1 {
		t.Errorf("trace holds %d backend-panic instants, want 1", marks)
	}

	// The poisoned request itself fails with the sentinel; the server
	// still serves afterwards.
	ch, err := srv.TrySubmit(context.Background(), backend.poison)
	if err != nil {
		t.Fatal(err)
	}
	if r := <-ch; !errors.Is(r.Err, ErrBackendPanic) {
		t.Fatalf("poisoned request: err %v, want ErrBackendPanic", r.Err)
	}
	if r, err := srv.Submit(context.Background(), nil); err != nil || r.Err != nil {
		t.Fatalf("server stopped serving after a backend panic: %v / %+v", err, r)
	}
}
