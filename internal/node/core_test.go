package node

import (
	"math/rand"
	"testing"
	"time"

	"neuralcache/plan"
)

// recorder is a Clock that logs restages and re-plans.
type recorder struct {
	restages [][3]int // group, model, from
	replans  int
}

func (r *recorder) Restage(g, mi, from int) error {
	r.restages = append(r.restages, [3]int{g, mi, from})
	return nil
}

func (r *recorder) Replanned(time.Duration, float64, int) { r.replans++ }

func newCore(groups, maxBatch int, linger time.Duration) (*Core[int], *recorder) {
	rec := &recorder{}
	return New[int](Config{Models: []string{"A", "B"}, Groups: groups, MaxBatch: maxBatch, MaxLinger: linger}, rec), rec
}

// TestPickPlanned pins the plan-aware selection order: warm pinned >
// warm overflow > cold pinned > never-staged overflow > any overflow,
// and never a foreign pinned group.
func TestPickPlanned(t *testing.T) {
	const A, B = 0, 1
	c, _ := newCore(5, 1, 0)
	// Groups: 0,1 pinned to A; 2 pinned to B; 3,4 overflow.
	c.pin = []int{A, A, B, -1, -1}
	set := func(free []bool, staged []int) {
		copy(c.free, free)
		copy(c.staged, staged)
	}
	set([]bool{true, true, true, true, true}, []int{A, -1, B, A, -1})
	if id, warm := c.pickPlanned(A); id != 0 || !warm {
		t.Fatalf("warm pinned: got %d/%v", id, warm)
	}
	// Warm overflow beats cold pinned.
	set([]bool{false, true, true, true, true}, []int{A, -1, B, A, -1})
	if id, warm := c.pickPlanned(A); id != 3 || !warm {
		t.Fatalf("warm overflow: got %d/%v", id, warm)
	}
	// Cold pinned beats never-staged overflow.
	set([]bool{false, true, true, false, true}, []int{A, -1, B, A, -1})
	if id, warm := c.pickPlanned(A); id != 1 || warm {
		t.Fatalf("cold pinned: got %d/%v", id, warm)
	}
	// Foreign pinned groups are never eligible: only B's group free.
	set([]bool{false, false, true, false, false}, []int{A, -1, B, A, -1})
	if id, _ := c.pickPlanned(A); id != -1 {
		t.Fatalf("foreign pinned group claimed: %d", id)
	}
	// Never-staged overflow beats evicting a warm overflow group.
	set([]bool{false, false, false, true, true}, []int{A, -1, B, B, -1})
	if id, warm := c.pickPlanned(A); id != 4 || warm {
		t.Fatalf("empty overflow: got %d/%v", id, warm)
	}
	// Last resort: evict an overflow group.
	set([]bool{false, false, false, true, true}, []int{A, -1, B, B, B})
	if id, warm := c.pickPlanned(A); id != 3 || warm {
		t.Fatalf("evict overflow: got %d/%v", id, warm)
	}
}

// TestReadyPick: a model is ready with a full batch or a lingered head;
// the oldest ready head goes first, ties to registry order; otherwise
// the earliest future linger deadline comes back.
func TestReadyPick(t *testing.T) {
	c, _ := newCore(2, 2, 10)
	if mi, dl := c.Ready(0); mi != -1 || dl != -1 {
		t.Fatalf("empty core: %d, %v", mi, dl)
	}
	c.Push(1, 5, 0)
	c.Push(0, 7, 0)
	if mi, dl := c.Ready(8); mi != -1 || dl != 15 {
		t.Fatalf("lingering heads: %d, deadline %v (want -1, 15)", mi, dl)
	}
	if mi, _ := c.Ready(15); mi != 1 {
		t.Fatalf("lingered head: model %d, want 1", mi)
	}
	c.Push(0, 8, 0) // model 0 now holds a full batch, but model 1 is older
	if mi, _ := c.Ready(16); mi != 1 {
		t.Fatalf("oldest head first: model %d, want 1", mi)
	}
	at, _ := c.Pop(1)
	if len(at) != 1 || c.Depth() != 2 {
		t.Fatalf("pop: %v, depth %d", at, c.Depth())
	}
	if mi, _ := c.Ready(9); mi != 0 {
		t.Fatalf("full batch: model %d, want 0", mi)
	}
	// No free group: nothing is ready and no deadline is armed.
	c.Claim(0)
	c.Claim(0)
	if mi, dl := c.Ready(100); mi != -1 || dl != -1 {
		t.Fatalf("all groups busy: %d, %v", mi, dl)
	}
	// Equal heads go to registry order.
	d, _ := newCore(1, 1, 0)
	d.Push(1, 3, 0)
	d.Push(0, 3, 0)
	if mi, _ := d.Ready(3); mi != 0 {
		t.Fatalf("tie: model %d, want 0", mi)
	}
}

// TestClaimWarmFirst: warm beats never-staged beats evicting.
func TestClaimWarmFirst(t *testing.T) {
	c, _ := newCore(3, 1, 0)
	if g, warm := c.Claim(1); g != 0 || warm {
		t.Fatalf("first claim: %d/%v", g, warm)
	}
	c.Release(0)
	if g, warm := c.Claim(0); g != 1 || warm {
		t.Fatalf("never-staged before evict: %d/%v", g, warm)
	}
	if g, warm := c.Claim(1); g != 0 || !warm {
		t.Fatalf("warm: %d/%v", g, warm)
	}
	c.Release(0)
	c.Release(1)
	c.Claim(0) // group 1, warm
	c.Claim(0) // group 2, never staged
	if g, warm := c.Claim(0); g != 0 || warm {
		t.Fatalf("evict: %d/%v", g, warm)
	}
}

// TestStartAndRelease: Start pre-stages every pinned group; a restage
// queued on a busy group starts when its batch releases it, and a
// release with nothing pending frees the group.
func TestStartAndRelease(t *testing.T) {
	c, rec := newCore(3, 1, 0)
	p := &plan.Plan{Groups: 3, Models: []plan.ModelPlan{{Model: "A", Groups: []int{0}}, {Model: "B", Groups: []int{1}}}}
	if err := c.Start(p, nil); err != nil {
		t.Fatal(err)
	}
	if len(rec.restages) != 2 || rec.restages[0] != [3]int{0, 0, -1} || rec.restages[1] != [3]int{1, 1, -1} {
		t.Fatalf("pre-stages: %v", rec.restages)
	}
	if c.Busy() != 2 {
		t.Fatalf("busy %d during pre-stage", c.Busy())
	}
	c.pending[0] = 1
	if err := c.Release(0); err != nil || len(rec.restages) != 3 || rec.restages[2] != [3]int{0, 1, 0} {
		t.Fatalf("chained restage: %v, %v", err, rec.restages)
	}
	c.Release(0)
	c.Release(1)
	if c.Busy() != 0 {
		t.Fatalf("busy %d after releases", c.Busy())
	}
	bad := &plan.Plan{Groups: 3, Models: []plan.ModelPlan{{Model: "C", Groups: []int{0}}}}
	if err := c.Start(bad, nil); err == nil {
		t.Fatal("plan naming an unregistered model accepted")
	}
}

// TestArrivalsSingleEpoch: with one rate epoch, uniform arrival n lands
// at exactly n/Rate and Poisson arrivals accumulate Exp/Rate draws.
func TestArrivalsSingleEpoch(t *testing.T) {
	g := Load{Rate: 3000, Requests: 1000}.Arrivals()
	for n := 1; ; n++ {
		at, _, _, ok := g.Next()
		if !ok {
			break
		}
		if want := time.Duration(float64(n) / 3000 * float64(time.Second)); at != want {
			t.Fatalf("uniform arrival %d at %v, want %v", n, at, want)
		}
	}
	p := Load{Rate: 700, Requests: 1000, Seed: 3, Poisson: true}.Arrivals()
	rng := rand.New(rand.NewSource(3))
	sec := 0.0
	for {
		at, _, _, ok := p.Next()
		if !ok {
			break
		}
		sec += rng.ExpFloat64() / 700
		if want := time.Duration(sec * float64(time.Second)); at != want {
			t.Fatalf("Poisson arrival at %v, want %v", at, want)
		}
	}
}
