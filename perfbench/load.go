package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"neuralcache"
	"neuralcache/serve"
)

// The phases of a wall-clock workload.
const (
	light = iota
	heavy
	overload
	nPhases
)

var phaseNames = [nPhases]string{"light", "heavy", "overload"}

// block is one constant-rate stretch of an open-loop schedule.
type block struct {
	phase      int
	rate       float64 // mean Poisson arrivals per second
	start, end time.Duration
}

// blockLen is the target length of one light or heavy block.
const blockLen = 750 * time.Millisecond

// blocks lays out a run of length d: light and heavy blocks alternating
// over the first four fifths, so a drift of the host over the run
// reaches both phases alike, then one overload block long enough for
// the admission queue to fill and stay full.
func blocks(d time.Duration, rates [nPhases]float64) []block {
	mixed := d * 4 / 5
	pairs := max(1, int(mixed/(2*blockLen)))
	step := mixed / time.Duration(2*pairs)
	var out []block
	var t time.Duration
	for i := 0; i < 2*pairs; i++ {
		p := i % 2
		out = append(out, block{phase: p, rate: rates[p], start: t, end: t + step})
		t += step
	}
	return append(out, block{phase: overload, rate: rates[overload], start: t, end: d})
}

// arrival is one scheduled request. key identifies the input within
// the workload's input set, so equal keys carry equal bytes.
type arrival struct {
	block int
	phase int
	due   time.Duration // offset from the start of the schedule
	model string
	key   int
	input *neuralcache.Tensor
}

// inputSource hands out the input of the next arrival.
type inputSource func() (key int, in *neuralcache.Tensor)

// schedule draws Poisson arrivals for each block in turn, each asking
// model to run on the next input of next.
func schedule(rng *rand.Rand, blocks []block, model string, next inputSource) []arrival {
	var out []arrival
	for bi, b := range blocks {
		t := b.start
		for {
			t += time.Duration(rng.ExpFloat64() / b.rate * float64(time.Second))
			if t >= b.end {
				break
			}
			key, in := next()
			out = append(out, arrival{block: bi, phase: b.phase, due: t, model: model, key: key, input: in})
		}
	}
	return out
}

// randomTensor fills a tensor of the model's input shape from rng.
func randomTensor(rng *rand.Rand, m *neuralcache.Model) *neuralcache.Tensor {
	h, w, c := m.InputShape()
	t := neuralcache.NewTensor(h, w, c, 1.0/255)
	rng.Read(t.Data)
	return t
}

// outcome is what the benchmark saw of one arrival. Times are offsets
// from the start of the schedule. It keeps no response, so the
// benchmark's live heap does not grow while the window runs.
type outcome struct {
	late    time.Duration // submit call start minus due time
	submit  time.Duration // TrySubmitModel call duration
	refused bool          // admission refused: the queue was full
	err     error         // any other failure, or a wrong answer
	hit     bool          // answered by the front-cache
	queued  time.Duration // Response.Queued
	latency time.Duration // Response.Latency
	done    time.Duration // completion
	e2e     time.Duration // due time to completion
}

func (o *outcome) served() bool { return !o.refused && o.err == nil }

// drive offers the schedule open-loop: one generator goroutine (the
// caller's) submits each arrival at its due time without waiting for
// earlier ones, and one collector goroutine receives the responses and
// checks each result with check as it arrives. Latency runs from the
// due time, so a generator that falls behind shows up in every request
// it delays. The schedule's inputs must be distinct pointers when tb is
// set: tb links batches to requests by input identity. The generator
// calls onBlock with a block's index when it reaches the block's first
// arrival, before that arrival is due.
func drive(srv *serve.Server, sched []arrival, onBlock func(block int), check func(*arrival, *neuralcache.InferenceResult) error, tb *timedBackend, rec *recorder) []outcome {
	out := make([]outcome, len(sched))
	cur := -1
	if tb != nil {
		tb.link(sched)
	}
	type pending struct {
		i      int
		ch     <-chan *serve.Response
		t0, t1 time.Duration
	}
	// Sized to the number of sends, so the generator never waits for
	// the collector.
	q := make(chan pending, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range q {
			resp := <-p.ch
			o := &out[p.i]
			o.hit, o.queued, o.latency = resp.CacheHit, resp.Queued, resp.Latency
			o.done = p.t1
			if !resp.CacheHit {
				// Latency runs from admission, inside the submit call;
				// a hit completed before the call returned.
				o.done += resp.Latency
			}
			o.e2e = o.done - sched[p.i].due
			if resp.Err != nil {
				o.err = resp.Err
			} else {
				o.err = check(&sched[p.i], resp.Result)
			}
			if rec != nil {
				recordRequest(rec, rec.at(start), p.i, sched[p.i].due, p.t0, p.t1, resp)
			}
		}
	}()
	ctx := context.Background()
	for i := range sched {
		a := &sched[i]
		if a.block != cur {
			cur = a.block
			onBlock(cur)
		}
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Since(start)
		ch, err := srv.TrySubmitModel(ctx, a.model, a.input)
		t1 := time.Since(start)
		o := &out[i]
		o.late = t0 - a.due
		o.submit = t1 - t0
		if err != nil {
			o.refused = errors.Is(err, serve.ErrQueueFull)
			if !o.refused {
				o.err = err
			}
			o.done = t1
			if rec != nil {
				base := rec.at(start)
				rec.add(span{Name: "request", Req: i, Start: base + a.due, End: base + t1})
				rec.add(span{Name: "serve.submit", Parent: "request", Req: i, Start: base + t0, End: base + t1})
			}
			continue
		}
		q <- pending{i: i, ch: ch, t0: t0, t1: t1}
	}
	close(q)
	wg.Wait()
	return out
}

// recordRequest records one answered request's spans: the whole request
// from its due time, the submit call, and for a miss its queue wait and
// service (the batch's engine span is recorded by timedBackend).
func recordRequest(rec *recorder, base time.Duration, i int, due, t0, t1 time.Duration, resp *serve.Response) {
	end := t1
	if !resp.CacheHit {
		end += resp.Latency
	}
	rec.add(span{Name: "request", Req: i, Start: base + due, End: base + end})
	rec.add(span{Name: "serve.submit", Parent: "request", Req: i, Start: base + t0, End: base + t1})
	if resp.CacheHit {
		rec.add(span{Name: "cache.hit", Parent: "serve.submit", Req: i, Start: base + t1 - resp.Latency, End: base + t1})
		return
	}
	rec.add(span{Name: "serve.queue", Parent: "request", Req: i, Start: base + t1, End: base + t1 + resp.Queued})
	rec.add(span{Name: "serve.service", Parent: "request", Req: i, Start: base + t1 + resp.Queued, End: base + end})
}

// replay submits every request closed-loop from a few workers with the
// blocking SubmitModel and returns the responses in request order. It
// warms the server up without a schedule.
func replay(srv *serve.Server, reqs []arrival, workers int) ([]*serve.Response, error) {
	resps := make([]*serve.Response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r, err := srv.SubmitModel(ctx, reqs[i].model, reqs[i].input)
				if err != nil {
					errs <- err
					return
				}
				resps[i] = r
			}
		}()
	}
	wg.Wait()
	close(errs)
	return resps, <-errs
}

// timedBackend wraps the bit-exact backend to time each Execute call
// from outside the engine. Batches of linked inputs are recorded as
// engine spans of the requests they served.
type timedBackend struct {
	*serve.BitExactBackend
	rec *recorder

	ids  map[*neuralcache.Tensor]int // input → request, set by link
	exec []time.Duration             // per request: its batch's Execute span

	mu      sync.Mutex
	perReq  []float64 // per linked batch: Execute span / batch size, ms
	batches int
}

// link maps the schedule's inputs to their requests. It runs while no
// batch is executing; every later Execute starts after it.
func (b *timedBackend) link(sched []arrival) {
	b.ids = make(map[*neuralcache.Tensor]int, len(sched))
	for i := range sched {
		b.ids[sched[i].input] = i
	}
	b.exec = make([]time.Duration, len(sched))
}

// Execute implements serve.Backend.
func (b *timedBackend) Execute(ctx context.Context, model string, inputs []*neuralcache.Tensor, cold bool, groupSize int) ([]*neuralcache.InferenceResult, error) {
	start := time.Now()
	res, err := b.BitExactBackend.Execute(ctx, model, inputs, cold, groupSize)
	end := time.Now()
	reqs := make([]int, 0, len(inputs))
	for _, in := range inputs {
		if i, ok := b.ids[in]; ok {
			reqs = append(reqs, i)
			b.exec[i] = end.Sub(start)
		}
	}
	if len(reqs) == 0 {
		return res, err
	}
	b.rec.add(span{Name: "engine.execute", Parent: "serve.service", Req: -1, Reqs: reqs, Start: b.rec.at(start), End: b.rec.at(end)})
	b.mu.Lock()
	b.perReq = append(b.perReq, msOf(end.Sub(start))/float64(len(inputs)))
	b.batches++
	b.mu.Unlock()
	return res, err
}
