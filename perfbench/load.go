package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// call is one request as the load generator saw it. Offsets are from the
// start of its phase; in a closed loop a request is due when its client
// becomes free.
type call struct {
	due, sent, done time.Duration
	rows            int
	ok              bool
	spans           []spanRec // traced phases only
}

func (c call) latency() time.Duration { return c.done - c.due }
func (c call) lag() time.Duration     { return c.sent - c.due }

// spanRec is one recorded span. Spans of one request share rung and req;
// offsets are milliseconds from the start of the rung's phase.
type spanRec struct {
	Rung    string  `json:"rung"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// sender issues request i from client worker and returns the answer's rows.
// rec, non-nil in traced phases, receives the request's child spans.
type sender func(ctx context.Context, worker int, i int64, rec *recorder) ([][]float64, error)

// recorder collects one request's spans relative to its phase start.
type recorder struct {
	t0    time.Time
	spans []spanRec
}

func (r *recorder) span(name, parent string, start, end time.Time) {
	r.spans = append(r.spans, spanRec{Name: name, Parent: parent,
		StartMs: ms(start.Sub(r.t0)), DurMs: ms(end.Sub(start))})
}

// program spans are the per-stage breakdown the program returns; they
// become children of parent, offset from base.
func (r *recorder) program(prefix, parent string, base time.Time, spans []obs.Span) {
	off := ms(base.Sub(r.t0))
	for _, s := range spans {
		r.spans = append(r.spans, spanRec{Name: prefix + s.Name, Parent: parent,
			StartMs: off + s.StartMs, DurMs: s.DurMs})
	}
}

// drive runs load for dur: an open loop on a seeded Poisson schedule when
// the workload has a rate, otherwise closed-loop clients. Requests due
// before dur ends all complete; every answer is checked.
func (b *bench) drive(ctx context.Context, dur time.Duration, send sender, traced bool) []call {
	perWorker := make([][]call, b.w.clients)
	t0 := time.Now()
	issue := func(worker int, i int64, due, sent time.Duration) {
		var rec *recorder
		if traced {
			rec = &recorder{t0: t0}
		}
		first := b.firstRow(i)
		outs, err := send(ctx, worker, i, rec)
		c := call{due: due, sent: sent, done: time.Since(t0), rows: b.w.rows}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, err)
			b.fail()
		} else if len(outs) != b.w.rows {
			b.fail()
			b.wrong.Add(1)
		} else {
			c.ok = b.check(first, b.w.rows, func(k int) []float64 { return outs[k] })
		}
		if rec != nil {
			c.spans = rec.spans
		}
		perWorker[worker] = append(perWorker[worker], c)
	}

	var wg sync.WaitGroup
	if b.w.rate > 0 {
		type job struct {
			i    int64
			sent time.Duration
		}
		sched := arrivals(b.opts.seed, b.w.rate, dur)
		// Sized to the schedule so the dispatcher never blocks: a stalled
		// system must not slow the arrivals.
		jobs := make(chan job, len(sched))
		for w := range b.w.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					issue(w, j.i, sched[j.i], j.sent)
				}
			}()
		}
		// Sleep-based pacing: the generator yields the CPU between arrivals
		// and its lateness is reported as loadgen.lag_*.
		for i, due := range sched {
			if d := due - time.Since(t0); d > 0 {
				time.Sleep(d)
			}
			jobs <- job{int64(i), time.Since(t0)}
		}
		close(jobs)
	} else {
		var next atomic.Int64
		for w := range b.w.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					due := time.Since(t0)
					if due >= dur || ctx.Err() != nil {
						return
					}
					issue(w, next.Add(1)-1, due, time.Since(t0))
				}
			}()
		}
	}
	wg.Wait()
	var calls []call
	for _, cs := range perWorker {
		calls = append(calls, cs...)
	}
	return calls
}

// arrivals returns a seeded Poisson schedule of rate×dur arrivals over
// dur: a Poisson process conditioned on its count is that many uniform
// points, sorted. Fixing the count keeps the offered load equal across
// seeds.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(dur)))
	}
	slices.Sort(out)
	return out
}

// doSender calls Model.Do in process; worker w uses model w mod len(models).
func (b *bench) doSender(models []*serve.Model) sender {
	return func(ctx context.Context, worker int, i int64, rec *recorder) ([][]float64, error) {
		start := time.Now()
		resp, err := models[worker%len(models)].Do(ctx, &serve.Request{Rows: b.reqs[i%int64(len(b.reqs))]})
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.span("serve.do", "", start, time.Now())
			rec.program("serve.", "serve.do", start, resp.Spans)
		}
		return resp.Outputs, nil
	}
}

// httpSender is the benchmark's own client: JSON encode, POST /v1/infer,
// JSON decode. Worker w holds one connection and posts to urls[w mod
// len(urls)].
func (b *bench) httpSender(urls []string) (sender, func()) {
	clients := make([]*http.Client, b.w.clients)
	for w := range clients {
		clients[w] = newClient()
	}
	closeIdle := func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}
	return func(ctx context.Context, worker int, i int64, rec *recorder) ([][]float64, error) {
		t0 := time.Now()
		body, err := json.Marshal(serve.InferRequest{Model: modelName, Inputs: b.reqs[i%int64(len(b.reqs))]})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, urls[worker%len(urls)]+"/v1/infer", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := clients[worker].Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
		}
		t2 := time.Now()
		var out serve.InferResponse
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, err
		}
		if rec != nil {
			t3 := time.Now()
			rec.span("loadgen.encode", "", t0, t1)
			rec.span("loadgen.http", "", t1, t2)
			rec.span("loadgen.decode", "", t2, t3)
			rec.program("serve.", "loadgen.http", t1, out.Spans)
		}
		return out.Outputs, nil
	}, closeIdle
}

// engineLoop runs Engine.Infer in a closed loop on batch — input rows
// [first, first+batch.Rows()) — for dur, checking every answer, and records
// each call in wins while it has room. It allocates nothing itself, so the
// heap allocated across it is the engine's.
func (b *bench) engineLoop(eng *infer.Engine, batch *sparse.Dense, first int, dur time.Duration, wins []window) (calls int, elapsed time.Duration, err error) {
	n := batch.Rows()
	t0 := time.Now()
	for elapsed < dur {
		s := time.Now()
		out, err := eng.Infer(batch)
		if err != nil {
			return calls, elapsed, err
		}
		b.check(first, n, func(k int) []float64 { return out.RowSlice(k) })
		elapsed = time.Since(t0)
		if calls < len(wins) {
			wins[calls] = window{s.Sub(t0), elapsed}
		}
		calls++
	}
	return calls, elapsed, nil
}

// latencies returns the calls' due-to-done latencies.
func latencies(calls []call) []sample {
	out := make([]sample, 0, len(calls))
	for _, c := range calls {
		out = append(out, sample{c.due, ms(c.latency())})
	}
	return out
}

// rowsPerSec is the rows answered correctly per second of [0, dur), the
// last slice running on to the last answer. In a closed loop it is the
// median over time slices of about rateSlice requests; in an open loop the
// slices would count the schedule's own fluctuation, so it is pooled.
func (b *bench) rowsPerSec(calls []call, dur time.Duration) float64 {
	k := numSlices(len(calls), rateSlice)
	if b.w.rate > 0 {
		k = 1
	}
	rows := make([]float64, k)
	end := dur
	for _, c := range calls {
		end = max(end, c.done)
		if c.ok {
			rows[sliceOf(c.done, dur, k)] += float64(c.rows)
		}
	}
	width := dur / time.Duration(k)
	for i := range rows {
		w := width
		if i == k-1 {
			w = end - width*time.Duration(k-1)
		}
		rows[i] /= w.Seconds()
	}
	return median(rows)
}
