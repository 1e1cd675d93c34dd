package node

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Share is one model's relative weight in a traffic mix ("" = the
// default model); serve.ModelShare is this type and documents the rules.
type Share struct {
	Model  string  `json:"model"`
	Weight float64 `json:"weight"`
}

// MixShift replaces the traffic mix from At onward (serve.MixShift).
type MixShift struct {
	At  time.Duration `json:"at_ns"`
	Mix []Share       `json:"mix"`
}

// RateShift replaces the arrival rate from At onward
// (cluster.RateShift).
type RateShift struct {
	At   time.Duration `json:"at_ns"`
	Rate float64       `json:"rate_per_sec"`
}

// Reuse draws each arrival's input key Zipf(ZipfS) over Universe
// distinct inputs (serve.Reuse).
type Reuse struct {
	ZipfS    float64
	Universe int
}

// Enabled reports whether the load repeats inputs.
func (r Reuse) Enabled() bool { return r != (Reuse{}) }

// NewZipf returns a reuse-key sampler for r drawing from rng.
func NewZipf(r Reuse, rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, r.ZipfS, 1, uint64(r.Universe-1))
}

// Load is a generated arrival process: the fields of serve.Load and
// cluster.Load, which both convert to it.
type Load struct {
	// Rate is the open-loop arrival rate, or the closed-loop per-user
	// think rate (0 = no think). RateSchedule shifts the open-loop rate
	// from each entry's At onward.
	Rate         float64
	RateSchedule []RateShift
	// Requests bounds the arrival count; when 0, Duration bounds the
	// arrival window instead.
	Requests int
	Duration time.Duration
	// Seed seeds every draw; Poisson draws exponential interarrival (or
	// think) times instead of uniform spacing.
	Seed    int64
	Poisson bool
	// Concurrency, when positive, makes the load closed-loop with that
	// many users.
	Concurrency int
	Mix         []Share
	MixSchedule []MixShift
	Reuse       Reuse
}

// Validate applies the load rules every driver shares. Errors carry no
// package prefix; drivers add theirs.
func (l Load) Validate() error {
	if l.Concurrency < 0 {
		return fmt.Errorf("closed-loop concurrency %d", l.Concurrency)
	}
	if math.IsNaN(l.Rate) || math.IsInf(l.Rate, 0) {
		return fmt.Errorf("arrival rate %v", l.Rate)
	}
	if l.Concurrency > 0 {
		if l.Rate < 0 {
			return fmt.Errorf("closed-loop think rate %v", l.Rate)
		}
	} else if l.Rate <= 0 {
		return fmt.Errorf("arrival rate %v", l.Rate)
	}
	if l.Requests < 0 {
		return fmt.Errorf("%d requests", l.Requests)
	}
	if l.Requests == 0 && l.Duration <= 0 {
		return fmt.Errorf("load needs Requests or Duration")
	}
	if err := validateMix(l.Mix, "mix"); err != nil {
		return err
	}
	if r := l.Reuse; r.Enabled() {
		switch {
		case math.IsNaN(r.ZipfS) || math.IsInf(r.ZipfS, 0) || r.ZipfS < 0:
			return fmt.Errorf("reuse Zipf skew %v", r.ZipfS)
		case r.ZipfS <= 1:
			return fmt.Errorf("reuse Zipf skew %v (must exceed 1)", r.ZipfS)
		case r.Universe <= 0:
			return fmt.Errorf("reuse universe %d (must be positive)", r.Universe)
		}
	}
	for i, shift := range l.MixSchedule {
		if shift.At <= 0 {
			return fmt.Errorf("mix shift %d at %v (must be after t=0)", i, shift.At)
		}
		if i > 0 && shift.At <= l.MixSchedule[i-1].At {
			return fmt.Errorf("mix schedule out of order at %v", shift.At)
		}
		if len(shift.Mix) == 0 {
			return fmt.Errorf("mix shift at %v has an empty mix", shift.At)
		}
		if err := validateMix(shift.Mix, fmt.Sprintf("mix shift at %v", shift.At)); err != nil {
			return err
		}
	}
	for i, shift := range l.RateSchedule {
		if shift.At <= 0 {
			return fmt.Errorf("rate shift %d at %v (must be after t=0)", i, shift.At)
		}
		if i > 0 && shift.At <= l.RateSchedule[i-1].At {
			return fmt.Errorf("rate schedule out of order at %v", shift.At)
		}
		if math.IsNaN(shift.Rate) || math.IsInf(shift.Rate, 0) || shift.Rate <= 0 {
			return fmt.Errorf("rate shift at %v to %v", shift.At, shift.Rate)
		}
	}
	return nil
}

// validateMix applies the mix rules: weights must be finite and
// non-negative, models distinct, and at least one weight positive (a
// mix summing to zero would silently misdraw — every arrival would land
// on the last entry — so it is rejected instead).
func validateMix(mix []Share, what string) error {
	seen := make(map[string]bool, len(mix))
	total := 0.0
	for _, ms := range mix {
		if ms.Weight < 0 || math.IsNaN(ms.Weight) || math.IsInf(ms.Weight, 0) {
			return fmt.Errorf("%s weight %v for model %q", what, ms.Weight, ms.Model)
		}
		if seen[ms.Model] {
			return fmt.Errorf("model %q appears twice in the %s", ms.Model, what)
		}
		seen[ms.Model] = true
		total += ms.Weight
	}
	if len(mix) > 0 && total <= 0 {
		return fmt.Errorf("%s weights sum to zero", what)
	}
	return nil
}

// Models returns every model name the load can draw, in first-seen
// order across the base mix and every scheduled shift, so drivers can
// resolve them up front.
func (l Load) Models() []string {
	var names []string
	seen := make(map[string]bool)
	add := func(mix []Share) {
		for _, ms := range mix {
			if !seen[ms.Model] {
				seen[ms.Model] = true
				names = append(names, ms.Model)
			}
		}
	}
	add(l.Mix)
	for _, shift := range l.MixSchedule {
		add(shift.Mix)
	}
	return names
}

// mixed reports whether the load draws models from a mix at all.
func (l Load) mixed() bool { return len(l.Mix) > 0 || len(l.MixSchedule) > 0 }

// Think draws one closed-loop think time: mean 1/Rate, exponential when
// Poisson, constant otherwise; zero when Rate is 0 (rng is consulted
// only under Poisson).
func (l Load) Think(rng *rand.Rand) time.Duration {
	if l.Rate <= 0 {
		return 0
	}
	t := 1 / l.Rate
	if l.Poisson {
		t = rng.ExpFloat64() / l.Rate
	}
	return time.Duration(t * float64(time.Second))
}

// Mixes is a load's mix timeline: epoch 0 is the base mix from t = 0,
// each MixShift opens the next.
type Mixes []mixEpoch

type mixEpoch struct {
	at  time.Duration
	mix mixTable
}

// Mixes materializes the load's mix timeline.
func (l Load) Mixes() Mixes {
	epochs := Mixes{{at: 0, mix: newMixTable(l.Mix)}}
	for _, shift := range l.MixSchedule {
		epochs = append(epochs, mixEpoch{at: shift.At, mix: newMixTable(shift.Mix)})
	}
	return epochs
}

// Draw picks a model name from the mix active at time at ("" for an
// empty mix, the default model). Closed-loop arrival times are not
// monotone across users, so this searches rather than cursors.
func (m Mixes) Draw(at time.Duration, rng *rand.Rand) string {
	i := len(m) - 1
	for i > 0 && m[i].at > at {
		i--
	}
	return m[i].mix.draw(rng)
}

// mixTable draws model names from a weighted mix via its cumulative
// weights.
type mixTable struct {
	mix []Share
	cum []float64
}

func newMixTable(mix []Share) mixTable {
	t := mixTable{mix: mix, cum: make([]float64, len(mix))}
	total := 0.0
	for i, ms := range mix {
		total += ms.Weight
		t.cum[i] = total
	}
	return t
}

// draw picks a model name with the mix's weights from rng (unused when
// the mix has fewer than two entries).
func (t mixTable) draw(rng *rand.Rand) string {
	switch len(t.mix) {
	case 0:
		return ""
	case 1:
		return t.mix[0].Model
	}
	x := rng.Float64() * t.cum[len(t.cum)-1]
	for i, c := range t.cum {
		if x < c {
			return t.mix[i].Model
		}
	}
	return t.mix[len(t.mix)-1].Model
}

// rateEpoch is one span of the rate timeline, in seconds (the
// generator's native unit).
type rateEpoch struct {
	at   float64
	rate float64
}

// Arrivals yields a deterministic arrival sequence, each arrival tagged
// with its mix-drawn model and its reuse key. Interarrival, mix and
// reuse draws come from independently salted generators, so enabling a
// mix or reuse does not perturb the schedule.
type Arrivals struct {
	load   Load
	rng    *rand.Rand // interarrival or think draws (Poisson only)
	mixRNG *rand.Rand // model-mix draws
	zipf   *rand.Zipf // reuse-key draws (Reuse only)
	mixes  Mixes
	rates  []rateEpoch
	count  int
	t      float64 // seconds

	// Uniform spacing counts from an anchor: the epoch in force, and the
	// time and ordinal of the arrival it started after.
	epoch   int
	anchorT float64
	anchorN int
}

// Arrivals starts the load's generator.
func (l Load) Arrivals() *Arrivals {
	g := &Arrivals{load: l, mixes: l.Mixes()}
	if l.Poisson {
		g.rng = rand.New(rand.NewSource(l.Seed))
	}
	if l.mixed() {
		g.mixRNG = rand.New(rand.NewSource(l.Seed ^ 0x6d69780a)) // "mix" salt
	}
	if l.Reuse.Enabled() {
		g.zipf = NewZipf(l.Reuse, rand.New(rand.NewSource(l.Seed^0x72657573))) // "reus" salt
	}
	g.rates = []rateEpoch{{at: 0, rate: l.Rate}}
	for _, shift := range l.RateSchedule {
		g.rates = append(g.rates, rateEpoch{at: shift.At.Seconds(), rate: shift.Rate})
	}
	return g
}

// Next returns the next open-loop arrival's offset from t = 0, its model
// ("" = the default) and its reuse key, or false when the load is
// exhausted.
func (g *Arrivals) Next() (time.Duration, string, uint64, bool) {
	g.count++
	if g.load.Requests > 0 && g.count > g.load.Requests {
		return 0, "", 0, false
	}
	i := g.rateIndex()
	if g.load.Poisson {
		// Piecewise-homogeneous Poisson: draw one unit exponential and
		// spend it across rate epochs — the residual mass carries over a
		// boundary, so the process stays memoryless within each epoch.
		e := g.rng.ExpFloat64()
		for {
			r := g.rates[i].rate
			if i+1 >= len(g.rates) {
				g.t += e / r
				break
			}
			end := g.rates[i+1].at
			if g.t+e/r <= end {
				g.t += e / r
				break
			}
			e -= (end - g.t) * r
			g.t = end
			i = g.rateIndex()
		}
	} else {
		// Uniform spacing at the rate in force when the previous arrival
		// landed, counted from the epoch's anchor: a boundary takes
		// effect from the next interarrival, and a single epoch spaces
		// arrival n at exactly n/Rate.
		if i != g.epoch {
			g.epoch, g.anchorT, g.anchorN = i, g.t, g.count-1
		}
		g.t = g.anchorT + float64(g.count-g.anchorN)/g.rates[i].rate
	}
	at := time.Duration(g.t * float64(time.Second))
	if g.load.Requests == 0 && at > g.load.Duration {
		return 0, "", 0, false
	}
	return at, g.mixes.Draw(at, g.mixRNG), g.key(), true
}

// NextClosed returns a closed-loop user's next arrival: the think time
// after its completion at now, tagged with the mix-drawn model and
// reuse key, or false when the request or duration budget is spent.
// Draw order follows completion order, which the virtual clock makes
// deterministic.
func (g *Arrivals) NextClosed(now time.Duration) (time.Duration, string, uint64, bool) {
	g.count++
	if g.load.Requests > 0 && g.count > g.load.Requests {
		return 0, "", 0, false
	}
	at := now + g.load.Think(g.rng)
	if g.load.Requests == 0 && at > g.load.Duration {
		return 0, "", 0, false
	}
	return at, g.mixes.Draw(at, g.mixRNG), g.key(), true
}

// rateIndex returns the rate epoch in force at the generator's current
// time. The cursor is monotone, so scanning from the back is cheap.
func (g *Arrivals) rateIndex() int {
	i := len(g.rates) - 1
	for i > 0 && g.rates[i].at > g.t {
		i--
	}
	return i
}

// key draws the arrival's reuse key: Zipf over the universe under
// Reuse, else the arrival ordinal — every input distinct, so a cache
// sees pure miss traffic, the honest baseline.
func (g *Arrivals) key() uint64 {
	if g.zipf != nil {
		return g.zipf.Uint64()
	}
	return uint64(g.count)
}
