package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/serve"
)

// system is one set-up instance of a workload's measured path.
type system struct {
	eng       *infer.Engine // offline: the measured engine
	st        *stack
	send      sender
	closeIdle func()
}

func (s *system) close() {
	if s.closeIdle != nil {
		s.closeIdle()
	}
	if s.st != nil {
		s.st.close()
	}
}

// setUp builds the workload's path and returns once the first answer is in
// and checked: for offline-gc1024 an engine from config and its first
// batch, otherwise serve backends listening (behind a healthy router when
// routed) and a first request answered through them.
func (b *bench) setUp(ctx context.Context) (*system, error) {
	if b.w.backends == 0 {
		eng, err := b.newEngine()
		if err != nil {
			return nil, err
		}
		out, err := eng.Infer(b.inputs)
		if err != nil {
			return nil, err
		}
		b.check(0, b.w.rows, func(k int) []float64 { return out.RowSlice(k) })
		return &system{eng: eng}, nil
	}
	st, err := b.startStack(b.w.backends, b.w.routed)
	if err != nil {
		return nil, err
	}
	sys := &system{st: st}
	urls := st.urls
	if b.w.routed {
		urls = []string{st.rtURL}
	}
	sys.send, sys.closeIdle = b.httpSender(urls)
	outs, err := sys.send(ctx, 0, 0, nil)
	if err != nil || len(outs) != b.w.rows {
		sys.close()
		return nil, fmt.Errorf("first request: %d rows, %v", len(outs), err)
	}
	b.check(0, b.w.rows, func(k int) []float64 { return outs[k] })
	return sys, nil
}

// measure is the untraced run: set up setupReps times (setup_s is the
// median), then load the last instance for the measured window.
func (b *bench) measure(ctx context.Context) (map[string]float64, error) {
	baseHeap := liveHeap()
	var setups []float64
	var sys *system
	for range setupReps {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		start := time.Now()
		s, err := b.setUp(ctx)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		sys = s
	}
	defer sys.close()

	var lat []sample
	var rps float64
	if sys.eng != nil {
		// One caller alone: its throughput is the batch over the median
		// call, so a stalled call does not move it more than it moves p50.
		wins := make([]window, maxWindows)
		calls, _, err := b.engineLoop(sys.eng, b.inputs, 0, b.opts.dur, wins)
		if err != nil {
			return nil, err
		}
		lat = winSamples(wins[:min(calls, len(wins))])
		rps = float64(b.w.rows) / (sliceQuantile(lat, b.opts.dur, 0.5) / 1000)
	} else {
		calls := b.drive(ctx, b.opts.dur, sys.send, false)
		lat, rps = latencies(calls), b.rowsPerSec(calls, b.opts.dur)
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"rows_per_s":     rps,
		"latency_p50_ms": sliceQuantile(lat, b.opts.dur, 0.5),
	}
	// The program's live heap with the models resident: drop the samples,
	// and count from the baseline taken before the first setup.
	lat = nil
	vals["heap_mb"] = (float64(liveHeap()) - float64(baseHeap)) / (1 << 20)
	runtime.KeepAlive(sys)
	return vals, nil
}

// window is one engine call, as offsets from its loop's start.
type window struct{ start, end time.Duration }

// maxWindows bounds the engine calls whose timings a loop keeps.
const maxWindows = 1 << 16

// allocBlocks is how many blocks the engine rung's allocation count is
// taken over.
const allocBlocks = 8

func winSamples(ws []window) []sample {
	out := make([]sample, len(ws))
	for i, w := range ws {
		out[i] = sample{w.start, ms(w.end - w.start)}
	}
	return out
}

// liveHeap returns the heap in use after two collections, the second
// emptying what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// traced is the per-layer run. Its phases, each a fifth of the window: the
// Model.Do, direct HTTP and router rungs, then — with the serving stack
// gone, so nothing else allocates — the engine rung at serve's measured
// mean batch, half of it with per-layer profiling on. The workload's own
// path gets one more phase, untraced, just before its rung.
func (b *bench) traced(ctx context.Context) (map[string]float64, []spanRec, error) {
	dur := b.opts.dur / 5
	vals := map[string]float64{}

	var builds []float64
	for range setupReps {
		start := time.Now()
		cfg, err := b.w.config(b.opts.tiny)
		if err != nil {
			return nil, nil, err
		}
		if _, err := core.Build(cfg); err != nil {
			return nil, nil, fmt.Errorf("core build: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	vals["core.build_s"] = median(builds)

	eng, err := b.newEngine()
	if err != nil {
		return nil, nil, err
	}
	st, err := b.startStack(max(1, b.w.backends), true)
	if err != nil {
		return nil, nil, err
	}
	stackUp := true
	defer func() {
		if stackUp {
			st.close()
		}
	}()
	doSend := b.doSender(st.models)
	httpSend, closeHTTP := b.httpSender(st.urls)
	rtSend, closeRouter := b.httpSender([]string{st.rtURL})

	// On the workload's own path an untraced pass comes first, as the base
	// of trace_overhead_frac, and the GC's CPU share is taken over the
	// traced pass.
	main := "http"
	switch {
	case b.w.backends == 0:
		main = "engine"
	case b.w.routed:
		main = "router"
	}
	gc := newGCMeter()
	var base float64
	// rung runs one traced rung and returns its calls and the bytes the
	// process allocated meanwhile, per row answered.
	rung := func(name string, send sender) ([]call, float64) {
		if name == main {
			untraced := b.drive(ctx, dur, send, false)
			if name == "router" {
				base = b.rowsPerSec(untraced, dur)
			} else {
				base = sliceQuantile(latencies(untraced), dur, 0.5)
			}
			gc.start()
			defer gc.stop()
		}
		a := totalAlloc()
		calls := b.drive(ctx, dur, send, true)
		return calls, float64(totalAlloc()-a) / float64(max(rowsOK(calls), 1))
	}

	var spans []spanRec
	snap0 := serveTotals(st.models)
	doCalls, doAlloc := rung("do", doSend)
	snap1 := serveTotals(st.models)
	spans = appendCallSpans(spans, "do", doCalls)

	httpCalls, httpAlloc := rung("http", httpSend)
	spans = appendCallSpans(spans, "http", httpCalls)

	rm0 := st.rt.Metrics()
	rtStart := time.Now()
	rtCalls, rtAlloc := rung("router", rtSend)
	rm1 := st.rt.Metrics()
	spans = appendCallSpans(spans, "router", rtCalls)
	var route, attempt []float64
	for i, t := range st.rt.Traces().Recent(len(rtCalls)) {
		if t.Start.Before(rtStart) {
			continue
		}
		off := ms(t.Start.Sub(rtStart))
		for _, s := range t.Spans {
			switch {
			case s.Name == "route":
				route = append(route, s.DurMs)
			case strings.HasPrefix(s.Name, "attempt:"):
				attempt = append(attempt, s.DurMs)
			}
			spans = append(spans, spanRec{Rung: "router.trace", Req: int64(i), Name: "cluster." + s.Name,
				StartMs: off + s.StartMs, DurMs: s.DurMs})
		}
	}
	snap2 := serveTotals(st.models)
	closeHTTP()
	closeRouter()
	st.close()
	stackUp = false
	runtime.GC() // collect the stack now, not during the engine rung

	// Serve: the in-process rung and the breakdown Model.Do returns.
	stage := spanStats(doCalls)
	for _, s := range []struct {
		name string
		q    float64
	}{{"queue", 0.5}, {"queue", 0.99}, {"assemble", 0.5}, {"assemble", 0.99},
		{"lease", 0.5}, {"execute", 0.5}, {"deliver", 0.5}} {
		vals[fmt.Sprintf("serve.%s_ms_p%02.0f", s.name, s.q*100)] = quantile(stage["serve."+s.name], s.q)
	}
	batches, batched := snap1.batches-snap0.batches, snap1.batchedRows-snap0.batchedRows
	meanBatch := float64(batched) / float64(max(batches, 1))
	vals["serve.mean_batch_rows"] = meanBatch
	vals["serve.do_rows_per_s"] = b.rowsPerSec(doCalls, dur)
	vals["serve.rejected_frac"] = float64(snap2.rejected-snap0.rejected) /
		float64(max(snap2.accepted-snap0.accepted+snap2.rejected-snap0.rejected, 1))

	// HTTP and router: self time is the difference between adjacent rungs.
	doP50 := sliceQuantile(latencies(doCalls), dur, 0.5)
	httpP50 := sliceQuantile(latencies(httpCalls), dur, 0.5)
	rtP50 := sliceQuantile(latencies(rtCalls), dur, 0.5)
	vals["serve.http.self_ms_p50"] = httpP50 - doP50
	vals["serve.http.admission_ms_p50"] = quantile(spanStats(httpCalls)["serve.admission"], 0.5)
	vals["serve.http.alloc_bytes_per_row"] = httpAlloc - doAlloc
	vals["cluster.self_ms_p50"] = rtP50 - httpP50
	vals["cluster.route_ms_p50"] = quantile(route, 0.5)
	vals["cluster.attempt_ms_p50"] = quantile(attempt, 0.5)
	vals["cluster.failover_frac"] = float64(rm1.Failovers-rm0.Failovers) / float64(max(rm1.Requests-rm0.Requests, 1))
	vals["cluster.alloc_bytes_per_row"] = rtAlloc - httpAlloc

	// Loadgen: the client codec, lateness and tails on the workload's own
	// path (offline-gc1024's tails are the engine rung's, below).
	client := httpCalls
	if main == "router" {
		client = rtCalls
	}
	tail := latencies(client)
	codec := spanStats(client)
	vals["loadgen.encode_ms_p50"] = quantile(codec["loadgen.encode"], 0.5)
	vals["loadgen.decode_ms_p50"] = quantile(codec["loadgen.decode"], 0.5)
	var lag []float64
	for _, c := range client {
		lag = append(lag, ms(c.lag()))
	}
	vals["loadgen.lag_p50_ms"] = quantile(lag, 0.5)
	vals["loadgen.lag_p99_ms"] = quantile(lag, 0.99)

	// Engine rung: offline at its own batch, the others at serve's mean.
	rows := b.w.rows
	if b.w.backends > 0 {
		rows = min(max(int(math.Round(meanBatch)), 1), b.w.inputs)
	}
	batch, err := b.inputs.RowsView(0, rows)
	if err != nil {
		return nil, nil, err
	}
	// The engine allocates nothing per batch in steady state, but other
	// goroutines allocate now and then; the least over several blocks is
	// the engine's own figure. One call first sizes its buffers.
	out, err := eng.Infer(batch)
	if err != nil {
		return nil, nil, err
	}
	b.check(0, rows, func(k int) []float64 { return out.RowSlice(k) })
	wins := make([]window, maxWindows)
	if main == "engine" {
		n, _, err := b.engineLoop(eng, batch, 0, dur, wins)
		if err != nil {
			return nil, nil, err
		}
		base = sliceQuantile(winSamples(wins[:min(n, len(wins))]), dur, 0.5)
		gc.start()
	}
	var calls int
	var elapsed time.Duration
	allocPerBatch := math.Inf(1)
	for range allocBlocks {
		a0 := totalAlloc()
		n, el, err := b.engineLoop(eng, batch, 0, dur/2/allocBlocks, wins[min(calls, len(wins)):])
		if err != nil {
			return nil, nil, err
		}
		allocPerBatch = min(allocPerBatch, float64(totalAlloc()-a0)/float64(n))
		for i := calls; i < min(calls+n, len(wins)); i++ {
			wins[i].start += elapsed
			wins[i].end += elapsed
		}
		calls += n
		elapsed += el
	}
	if main == "engine" {
		gc.stop()
	}
	wins = wins[:min(calls, len(wins))]
	for i, w := range wins {
		spans = append(spans, spanRec{Rung: "engine", Req: int64(i), Name: "infer.batch",
			StartMs: ms(w.start), DurMs: ms(w.end - w.start)})
	}
	engineRPS := float64(calls*rows) / elapsed.Seconds()
	vals["infer.batch_ms_p50"] = sliceQuantile(winSamples(wins), dur/2, 0.5)
	tailDur := dur
	if main == "engine" {
		tail, tailDur = winSamples(wins), dur/2
	}
	vals["loadgen.latency_p90_ms"] = sliceQuantile(tail, tailDur, 0.9)
	vals["loadgen.latency_p99_ms"] = sliceQuantile(tail, tailDur, 0.99)
	vals["infer.gedges_per_s"] = engineRPS * float64(eng.TotalNNZ()) / 1e9
	vals["infer.alloc_bytes_per_batch"] = allocPerBatch

	eng.EnableProfiling(1)
	if _, _, err := b.engineLoop(eng, batch, 0, dur/2, nil); err != nil {
		return nil, nil, err
	}
	prof, _ := eng.Profile()
	eng.DisableProfiling()
	var layer []float64
	for _, l := range prof.Layers {
		layer = append(layer, l.GedgesPerSec)
	}
	vals["sparse.layer_gedges_per_s_min"] = slices.Min(layer)
	vals["sparse.layer_gedges_per_s_median"] = median(layer)

	vals["runtime.gc_cpu_frac"] = gc.frac()
	switch main {
	case "engine":
		vals["trace_overhead_frac"] = vals["infer.batch_ms_p50"]/base - 1
	case "router":
		vals["trace_overhead_frac"] = 1 - b.rowsPerSec(rtCalls, dur)/base
	default:
		vals["trace_overhead_frac"] = httpP50/base - 1
	}
	return vals, spans, nil
}

// appendCallSpans adds each call's spans under a root loadgen.request span.
func appendCallSpans(spans []spanRec, rung string, calls []call) []spanRec {
	for i, c := range calls {
		spans = append(spans, spanRec{Rung: rung, Req: int64(i), Name: "loadgen.request",
			StartMs: ms(c.due), DurMs: ms(c.latency())})
		for _, s := range c.spans {
			s.Rung, s.Req = rung, int64(i)
			if s.Parent == "" {
				s.Parent = "loadgen.request"
			}
			spans = append(spans, s)
		}
	}
	return spans
}

// spanStats groups the calls' span durations by name.
func spanStats(calls []call) map[string][]float64 {
	out := map[string][]float64{}
	for _, c := range calls {
		for _, s := range c.spans {
			out[s.Name] = append(out[s.Name], s.DurMs)
		}
	}
	return out
}

func rowsOK(calls []call) int {
	n := 0
	for _, c := range calls {
		if c.ok {
			n += c.rows
		}
	}
	return n
}

// serveCounts sums the serve models' counters.
type serveCounts struct {
	accepted, rejected, batches, batchedRows int64
}

func serveTotals(models []*serve.Model) serveCounts {
	var c serveCounts
	for _, m := range models {
		s := m.Metrics().Snapshot()
		c.accepted += s.Accepted
		c.rejected += s.Rejected
		c.batches += s.Batches
		c.batchedRows += s.BatchedRows
	}
	return c
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// gcMeter accumulates the GC's share of CPU time over the windows between
// start and stop, from runtime/metrics.
type gcMeter struct {
	samples     []metrics.Sample
	gc, total   float64
	gc0, total0 float64
}

func newGCMeter() *gcMeter {
	return &gcMeter{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (g *gcMeter) read() (float64, float64) {
	metrics.Read(g.samples)
	return g.samples[0].Value.Float64(), g.samples[1].Value.Float64()
}

func (g *gcMeter) start() { g.gc0, g.total0 = g.read() }

func (g *gcMeter) stop() {
	gc, total := g.read()
	g.gc += gc - g.gc0
	g.total += total - g.total0
}

func (g *gcMeter) frac() float64 { return g.gc / max(g.total, 1e-9) }

// sameBits reports whether got and want hold bit-identical values.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

func flipBit(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }
