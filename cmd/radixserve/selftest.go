package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/cliutil"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/loadgen"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// serveBenchRecord is the BENCH_serve.json schema: one end-to-end
// throughput measurement of the serving stack, appended per run so the file
// records the repository's serving-performance trajectory (see README.md).
type serveBenchRecord struct {
	Benchmark    string              `json:"benchmark"`
	Date         string              `json:"date"`
	GoVersion    string              `json:"go_version"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	GitSHA       string              `json:"git_sha"`
	Network      serveBenchNet       `json:"network"`
	Policy       serveBenchPolicy    `json:"policy"`
	Levels       []serveBenchLevel   `json:"levels"`
	Backpressure serveBenchBP        `json:"backpressure"`
	HotReload    serveBenchHotReload `json:"hot_reload"`
	QoS          serveBenchQoS       `json:"qos"`
	// SLOFastBurn is the fast-window burn rate GET /v1/slo reports for the
	// deliberately breached objective (must exceed the violation threshold);
	// EngineGedges the profiled single-worker engine throughput, comparable
	// to the BENCH_infer.json kernel numbers.
	SLOFastBurn  float64 `json:"slo_fast_burn"`
	EngineGedges float64 `json:"engine_gedges_s"`
	BitIdentical bool    `json:"bit_identical"`
}

// serveBenchQoS records the starvation-freedom phase: interactive p99 with
// the machine idle vs under a saturating background flood (end-to-end and
// scheduler queue wait), plus both classes' delivered rates during the
// loaded window.
type serveBenchQoS struct {
	UnloadedP99Ms         float64 `json:"interactive_unloaded_p99_ms"`
	LoadedP99Ms           float64 `json:"interactive_loaded_p99_ms"`
	P99Bound              float64 `json:"p99_bound_ms"`
	QueueWaitP99Ms        float64 `json:"interactive_queue_wait_p99_ms"`
	InteractiveRowsPerSec float64 `json:"interactive_rows_per_sec"`
	BackgroundRowsPerSec  float64 `json:"background_rows_per_sec"`
	BackgroundRows        int     `json:"background_rows"`
	ExpiredShed           int64   `json:"expired_shed"`
}

type serveBenchNet struct {
	LayerWidth int `json:"layer_width"`
	Layers     int `json:"layers"`
	Weights    int `json:"weights"`
}

type serveBenchPolicy struct {
	MaxBatch     int     `json:"max_batch"`
	MaxLatencyMs float64 `json:"max_latency_ms"`
	QueueDepth   int     `json:"queue_depth"`
	Engines      int     `json:"engines"`
}

type serveBenchLevel struct {
	Concurrency   int     `json:"concurrency"`
	Rows          int     `json:"rows"`
	RowsPerSec    float64 `json:"rows_per_sec"`
	MeanBatch     float64 `json:"mean_batch"`
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	// LatencyP50Ms/P99Ms come from the /metrics histogram exposition
	// (radixserve_request_latency_seconds), windowed to this level via a
	// before/after scrape — the same data an operator's dashboard sees,
	// not an internal tally. Log-bucket interpolation: ≤2× resolution.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

type serveBenchBP struct {
	Sent     int `json:"sent"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

type serveBenchHotReload struct {
	Reloads  int `json:"reloads"`
	Requests int `json:"requests"`
	Failed   int `json:"failed"`
}

// postInfer sends one inference request (a serve.InferRequest or its
// pre-marshaled body) and decodes the serve response.
func postInfer(client *http.Client, url string, req any) (int, string, serve.InferResponse, error) {
	return loadgen.Post[serve.InferResponse](context.Background(), client, url, req)
}

// runSelftest drives the full serving stack end-to-end over real HTTP:
// correctness (batched results bit-identical to per-row Engine.Infer),
// throughput at several client concurrency levels, backpressure under
// deliberate saturation, and QoS starvation-freedom under a background
// flood. On success it appends the measurement to benchPath.
func runSelftest(benchPath string, engines int, pol serve.Policy, qos serve.QoSConfig) error {
	if engines < 1 {
		engines = 1
	}
	// The selftest network: radix [8,8,8] → width 512, 3 layers. Large
	// enough that batching is exercised, small enough for a CI smoke run.
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		return err
	}
	reg, err := serve.NewRegistryQoS(pol, qos)
	if err != nil {
		return err
	}
	// Profile every engine batch: the selftest asserts per-layer Gedges/s
	// against the BENCH_infer kernel record, so no batch may be skipped.
	reg.SetProfileEvery(1)
	buildStart := time.Now()
	m, err := reg.Register("selftest", cfg, engines)
	if err != nil {
		return err
	}
	info := m.Info()
	log.Printf("selftest model: %d layers × width %d, %d weights, %d engines, built in %v",
		info.Layers, info.InputWidth, info.Weights, info.Engines, time.Since(buildStart).Round(time.Millisecond))

	// Profiling and tracing on: the selftest smokes /debug/traces and
	// /debug/pprof alongside the serving phases. Two SLO objectives arm
	// GET /v1/slo: a loose one every request meets and a 1µs latency
	// target nothing can meet, which the deep-obs phase expects to see
	// burning hot ("violated").
	sloObjectives, err := slo.ParseObjectives([]string{"selftest::10s:50", "selftest::1us:99"})
	if err != nil {
		return err
	}
	srv := serve.NewServerOpts(reg, "127.0.0.1:0", serve.ServerOptions{
		Pprof: true,
		SLO:   slo.Config{Objectives: sloObjectives},
	})
	addr, err := srv.Start()
	if err != nil {
		return err
	}
	url := "http://" + addr
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	// Per-row ground truth from a private engine over the same config —
	// engine generation is deterministic, so weights match the served pool.
	const baseRows = 96
	width := m.InputWidth()
	in, err := dataset.SparseBatch(baseRows, width, width/10, 7)
	if err != nil {
		return err
	}
	ref, err := infer.FromConfig(cfg)
	if err != nil {
		return err
	}
	expected := make([][]float64, baseRows)
	for r := 0; r < baseRows; r++ {
		rowIn, err := sparse.DenseFromSlice(1, width, in.RowSlice(r))
		if err != nil {
			return err
		}
		y, err := ref.Infer(rowIn)
		if err != nil {
			return err
		}
		expected[r] = append([]float64(nil), y.Data()...)
	}

	client := loadgen.Client()
	var levels []serveBenchLevel
	for _, conc := range []int{1, 4, 16} {
		rows := baseRows * conc
		before := m.Metrics().Snapshot()
		beforeLatency := m.Metrics().LatencyNs.Load()
		beforeScrape, err := loadgen.ScrapeMetrics(context.Background(), client, url)
		if err != nil {
			return err
		}
		var next, mismatches, failures atomic.Int64
		var firstErr atomic.Value
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(rows) {
						return
					}
					r := int(i) % baseRows
					status, _, resp, err := postInfer(client, url, serve.InferRequest{Model: "selftest", Inputs: [][]float64{in.RowSlice(r)}})
					if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
						failures.Add(1)
						firstErr.CompareAndSwap(nil, fmt.Errorf("row %d: status %d err %v", r, status, err))
						return
					}
					for c, v := range resp.Outputs[0] {
						if v != expected[r][c] {
							mismatches.Add(1)
							firstErr.CompareAndSwap(nil, fmt.Errorf("row %d col %d: got %v want %v", r, c, v, expected[r][c]))
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if failures.Load() > 0 || mismatches.Load() > 0 {
			return fmt.Errorf("concurrency %d: %d failures, %d bitwise mismatches (first: %v)",
				conc, failures.Load(), mismatches.Load(), firstErr.Load())
		}
		after := m.Metrics().Snapshot()
		lvl := serveBenchLevel{
			Concurrency: conc,
			Rows:        rows,
			RowsPerSec:  float64(rows) / elapsed.Seconds(),
		}
		if db := after.Batches - before.Batches; db > 0 {
			lvl.MeanBatch = float64(after.BatchedRows-before.BatchedRows) / float64(db)
		}
		if dc := after.Completed - before.Completed; dc > 0 {
			lvl.MeanLatencyMs = float64(m.Metrics().LatencyNs.Load()-beforeLatency) / float64(dc) / 1e6
		}
		// Tail latency for this level from the exported histogram, windowed
		// by subtracting the pre-level scrape.
		afterScrape, err := loadgen.ScrapeMetrics(context.Background(), client, url)
		if err != nil {
			return err
		}
		want := map[string]string{"model": "selftest"}
		hb, okB := obs.ParseHistogram(beforeScrape, "radixserve_request_latency_seconds", want)
		ha, okA := obs.ParseHistogram(afterScrape, "radixserve_request_latency_seconds", want)
		if !okA {
			return fmt.Errorf("concurrency %d: radixserve_request_latency_seconds missing from /metrics", conc)
		}
		win := ha
		if okB {
			win = ha.Sub(hb)
		}
		if win.Count == 0 {
			return fmt.Errorf("concurrency %d: exported latency histogram recorded no requests", conc)
		}
		lvl.LatencyP50Ms = win.Quantile(0.50) * 1e3
		lvl.LatencyP99Ms = win.Quantile(0.99) * 1e3
		if lvl.LatencyP99Ms <= 0 || lvl.LatencyP99Ms > 20e3 {
			return fmt.Errorf("concurrency %d: exported latency p99 %.3fms implausible", conc, lvl.LatencyP99Ms)
		}
		levels = append(levels, lvl)
		log.Printf("concurrency %2d: %d rows in %v = %.0f rows/s (mean batch %.1f, mean latency %.2fms, exported p50 %.2fms p99 %.2fms), bit-identical",
			conc, rows, elapsed.Round(time.Millisecond), lvl.RowsPerSec, lvl.MeanBatch, lvl.MeanLatencyMs, lvl.LatencyP50Ms, lvl.LatencyP99Ms)
	}

	// Backpressure: a deliberately starved model — its only engine leased
	// away — must shed overflow with 429 instead of queuing unboundedly,
	// and everything accepted must still complete once the engine returns.
	tinyCfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
	if err != nil {
		return err
	}
	tinyPol := serve.Policy{MaxBatch: 4, MaxLatency: 5 * time.Millisecond, QueueDepth: 4, Workers: 1}
	tiny, err := reg.RegisterSpec("tiny", serve.Spec{Config: tinyCfg, Engines: 1, Policy: tinyPol})
	if err != nil {
		return err
	}
	tinyIn, err := dataset.SparseBatch(32, tiny.InputWidth(), 3, 3)
	if err != nil {
		return err
	}
	eng := tiny.Lease()
	const flood = 32
	var got200, got429, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, _, err := postInfer(client, url, serve.InferRequest{Model: "tiny", Inputs: [][]float64{tinyIn.RowSlice(i)}})
			switch {
			case err != nil:
				other.Add(1)
			case status == http.StatusOK:
				got200.Add(1)
			case status == http.StatusTooManyRequests:
				got429.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	// The worker can hold at most MaxBatch rows and the queue at most
	// QueueDepth, so with the engine starved at least
	// flood − MaxBatch − QueueDepth rejections must accumulate.
	minRejected := int64(flood - tinyPol.MaxBatch - tinyPol.QueueDepth)
	deadline := time.Now().Add(15 * time.Second)
	for tiny.Metrics().Rejected.Load() < minRejected && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tiny.Release(eng)
	wg.Wait()
	bp := serveBenchBP{Sent: flood, Accepted: int(got200.Load()), Rejected: int(got429.Load())}
	log.Printf("backpressure: %d sent → %d completed, %d rejected with 429, %d other",
		bp.Sent, bp.Accepted, bp.Rejected, other.Load())
	if got429.Load() == 0 {
		return fmt.Errorf("backpressure: saturation produced no 429s")
	}
	if got200.Load() == 0 {
		return fmt.Errorf("backpressure: nothing completed after the engine was released")
	}
	if other.Load() > 0 {
		return fmt.Errorf("backpressure: %d unexpected responses", other.Load())
	}

	hr, err := runControlPlanePhase(client, url, cfg, engines, expected, in)
	if err != nil {
		return err
	}

	qosRec, err := runQoSPhase(client, url, reg, m, expected, in)
	if err != nil {
		return err
	}

	if err := runObsPhase(client, url, in); err != nil {
		return err
	}

	sloBurn, gedges, err := runDeepObsPhase(client, url, reg, cfg, in)
	if err != nil {
		return err
	}

	rec := serveBenchRecord{
		Benchmark:  "serve-microbatch",
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     cliutil.GitSHA(),
		Network:    serveBenchNet{LayerWidth: info.InputWidth, Layers: info.Layers, Weights: info.Weights},
		Policy: serveBenchPolicy{
			MaxBatch:     info.MaxBatch,
			MaxLatencyMs: info.MaxLatencyMs,
			QueueDepth:   info.QueueDepth,
			Engines:      info.Engines,
		},
		Levels:       levels,
		Backpressure: bp,
		HotReload:    hr,
		QoS:          qosRec,
		SLOFastBurn:  sloBurn,
		EngineGedges: gedges,
		// Any bitwise mismatch returned above, so reaching here proves it.
		BitIdentical: true,
	}
	n, err := cliutil.AppendJSONRecord(benchPath, rec)
	if err != nil {
		return err
	}
	log.Printf("bench: appended record %d to %s", n, benchPath)
	return nil
}

// runObsPhase smokes the observability surface end to end: every response
// carries a trace ID and the full span breakdown (admission, queue,
// assemble, lease, execute, deliver), the trace is browsable via
// GET /debug/traces, and the opt-in pprof endpoints answer.
func runObsPhase(client *http.Client, url string, in *sparse.Dense) error {
	status, _, resp, err := postInfer(client, url, serve.InferRequest{
		Model: "selftest", Inputs: [][]float64{in.RowSlice(0)},
	})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("obs: probe: status %d err %v", status, err)
	}
	if len(resp.TraceID) != 32 {
		return fmt.Errorf("obs: response trace ID %q, want 32 hex chars", resp.TraceID)
	}
	if len(resp.Spans) < 5 {
		return fmt.Errorf("obs: response carries %d spans, want >= 5: %+v", len(resp.Spans), resp.Spans)
	}
	names := make(map[string]bool, len(resp.Spans))
	for _, s := range resp.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"admission", "queue", "assemble", "lease", "execute", "deliver"} {
		if !names[want] {
			return fmt.Errorf("obs: span %q missing from response: %+v", want, resp.Spans)
		}
	}

	tr, err := client.Get(url + "/debug/traces?n=8")
	if err != nil {
		return fmt.Errorf("obs: /debug/traces: %w", err)
	}
	var view struct {
		Total  uint64       `json:"total"`
		Recent []*obs.Trace `json:"recent"`
	}
	decodeErr := json.NewDecoder(tr.Body).Decode(&view)
	tr.Body.Close()
	if decodeErr != nil {
		return fmt.Errorf("obs: /debug/traces decode: %w", decodeErr)
	}
	if view.Total == 0 || len(view.Recent) == 0 {
		return fmt.Errorf("obs: /debug/traces empty after traffic")
	}
	found := false
	for _, t := range view.Recent {
		if t.ID == resp.TraceID && len(t.Spans) >= 5 {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("obs: trace %s not retained with spans in /debug/traces", resp.TraceID)
	}

	pp, err := client.Get(url + "/debug/pprof/cmdline")
	if err != nil {
		return fmt.Errorf("obs: pprof: %w", err)
	}
	_, _ = io.Copy(io.Discard, pp.Body)
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs: pprof cmdline: status %d", pp.StatusCode)
	}
	log.Printf("obs: trace %s echoed with %d spans, retained in /debug/traces (%d total); pprof live",
		resp.TraceID, len(resp.Spans), view.Total)
	return nil
}

// runDeepObsPhase exercises the PR's deep observability surface on top of
// the trace smoke: histogram exemplars must resolve to retained traces via
// GET /debug/traces?trace=, the ?min_ms= filter must answer JSON, the SLO
// engine must report the deliberately breached 1µs objective as
// "violated" (and the loose 10s one as "ok"), and the engine layer
// profiler must report per-layer Gedges/s within 2× of the BENCH_infer
// radix kernel record when that file is present. Returns the breached
// objective's fast burn and the profiled engine Gedges/s for the bench
// record.
func runDeepObsPhase(client *http.Client, url string, reg *serve.Registry, cfg core.Config, in *sparse.Dense) (sloFastBurn, gedges float64, err error) {
	// Fresh probes so the latency buckets carry recent exemplars whose
	// traces are still in the /debug/traces ring.
	for i := 0; i < 4; i++ {
		status, _, _, err := postInfer(client, url, serve.InferRequest{Model: "selftest", Inputs: [][]float64{in.RowSlice(i)}})
		if err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("deep-obs: probe %d: status %d err %v", i, status, err)
		}
	}
	scrape, err := loadgen.ScrapeMetrics(context.Background(), client, url)
	if err != nil {
		return 0, 0, err
	}
	ids := loadgen.ExemplarTraceIDs(scrape, "radixserve_request_latency_seconds_bucket{model=\"selftest\"")
	if len(ids) == 0 {
		return 0, 0, fmt.Errorf("deep-obs: no exemplar annotations on radixserve_request_latency_seconds buckets")
	}
	// Exemplars name the most recent request per bucket; old buckets may
	// reference traces the ring has since evicted, so any one resolving
	// proves the jump path.
	resolved := ""
	for _, id := range ids {
		tr, err := client.Get(url + "/debug/traces?trace=" + id)
		if err != nil {
			return 0, 0, fmt.Errorf("deep-obs: ?trace=: %w", err)
		}
		var view struct {
			Trace *obs.Trace `json:"trace"`
		}
		decodeErr := json.NewDecoder(tr.Body).Decode(&view)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK || decodeErr != nil {
			continue
		}
		if view.Trace != nil && view.Trace.ID == id && len(view.Trace.Spans) > 0 {
			resolved = id
			break
		}
	}
	if resolved == "" {
		return 0, 0, fmt.Errorf("deep-obs: none of %d exemplar trace IDs resolved via /debug/traces?trace=", len(ids))
	}
	// The ?min_ms= filter: an absurd threshold must still answer JSON,
	// just with everything filtered out.
	mm, err := client.Get(url + "/debug/traces?min_ms=1e9&n=4")
	if err != nil {
		return 0, 0, fmt.Errorf("deep-obs: ?min_ms=: %w", err)
	}
	var filtered struct {
		Total  uint64       `json:"total"`
		Recent []*obs.Trace `json:"recent"`
	}
	decodeErr := json.NewDecoder(mm.Body).Decode(&filtered)
	ctype := mm.Header.Get("Content-Type")
	mm.Body.Close()
	if mm.StatusCode != http.StatusOK || decodeErr != nil || ctype != "application/json" {
		return 0, 0, fmt.Errorf("deep-obs: ?min_ms=1e9: status %d ctype %q err %v", mm.StatusCode, ctype, decodeErr)
	}
	if filtered.Total == 0 || len(filtered.Recent) != 0 {
		return 0, 0, fmt.Errorf("deep-obs: ?min_ms=1e9 returned %d of %d traces, want 0", len(filtered.Recent), filtered.Total)
	}

	// The SLO engine: the 1µs objective is unmeetable, so with the whole
	// process lifetime inside both burn windows it must read "violated";
	// the 10s objective must stay "ok".
	sv, err := client.Get(url + "/v1/slo")
	if err != nil {
		return 0, 0, fmt.Errorf("deep-obs: /v1/slo: %w", err)
	}
	var view slo.View
	decodeErr = json.NewDecoder(sv.Body).Decode(&view)
	sv.Body.Close()
	if sv.StatusCode != http.StatusOK || decodeErr != nil {
		return 0, 0, fmt.Errorf("deep-obs: /v1/slo: status %d err %v", sv.StatusCode, decodeErr)
	}
	var breached, loose *slo.Status
	for i := range view.Statuses {
		st := &view.Statuses[i]
		if st.Model != "selftest" || st.Class != "" {
			continue
		}
		switch st.Objective.Latency {
		case time.Microsecond:
			breached = st
		case 10 * time.Second:
			loose = st
		}
	}
	if breached == nil || loose == nil {
		return 0, 0, fmt.Errorf("deep-obs: /v1/slo missing objectives (%d statuses)", len(view.Statuses))
	}
	if breached.State != slo.StateViolated {
		return 0, 0, fmt.Errorf("deep-obs: unmeetable 1µs objective reports %q (fast burn %.2f, slow %.2f), want %q",
			breached.State, breached.FastBurn, breached.SlowBurn, slo.StateViolated)
	}
	if loose.State != slo.StateOK {
		return 0, 0, fmt.Errorf("deep-obs: loose 10s objective reports %q (fast burn %.2f), want %q",
			loose.State, loose.FastBurn, slo.StateOK)
	}
	log.Printf("deep-obs: exemplar trace %s resolved via ?trace=; /v1/slo: 1µs objective %s (fast burn %.1f), 10s objective %s",
		resolved, breached.State, breached.FastBurn, loose.State)

	// Engine profiling: a dedicated model whose engines each get a
	// single-worker pool (engines == GOMAXPROCS makes the per-engine
	// quota 1), driven with full 64-row batches — the same shape as the
	// BENCH_infer kernel benchmark, so per-layer Gedges/s is comparable
	// to its single-threaded record.
	profPol := serve.Policy{MaxBatch: 64, MaxLatency: -1, QueueDepth: 256, Workers: 1}
	pm, err := reg.RegisterSpec("profiled", serve.Spec{Config: cfg, Engines: runtime.GOMAXPROCS(0), Policy: profPol})
	if err != nil {
		return 0, 0, fmt.Errorf("deep-obs: register profiled model: %w", err)
	}
	profIn, err := dataset.SparseBatch(64, pm.InputWidth(), pm.InputWidth()/10, 11)
	if err != nil {
		return 0, 0, err
	}
	inputs := make([][]float64, profIn.Rows())
	for r := range inputs {
		inputs[r] = profIn.RowSlice(r)
	}
	for i := 0; i < 8; i++ {
		status, _, resp, err := postInfer(client, url, serve.InferRequest{Model: "profiled", Inputs: inputs})
		if err != nil || status != http.StatusOK || len(resp.Outputs) != len(inputs) {
			return 0, 0, fmt.Errorf("deep-obs: profiled batch %d: status %d outputs %d err %v", i, status, len(resp.Outputs), err)
		}
	}
	snap, ok := pm.Profile()
	if !ok {
		return 0, 0, fmt.Errorf("deep-obs: profiled model reports no profile")
	}
	info := pm.Info()
	if len(snap.Layers) != info.Layers {
		return 0, 0, fmt.Errorf("deep-obs: profile has %d layers, model %d", len(snap.Layers), info.Layers)
	}
	if snap.Batches == 0 || snap.TotalEdges == 0 || snap.GedgesPerSec <= 0 {
		return 0, 0, fmt.Errorf("deep-obs: empty profile after traffic: %+v", snap)
	}
	for _, l := range snap.Layers {
		if l.Batches == 0 || l.Edges == 0 || l.GedgesPerSec <= 0 {
			return 0, 0, fmt.Errorf("deep-obs: layer %d profile empty: %+v", l.Layer, l)
		}
	}
	ref := benchInferGedges("BENCH_infer.json")
	if ref > 0 {
		for _, l := range snap.Layers {
			if ratio := l.GedgesPerSec / ref; ratio < 0.5 || ratio > 2 {
				return 0, 0, fmt.Errorf("deep-obs: layer %d at %.3f Gedges/s vs BENCH_infer %.3f (ratio %.2fx, want within 2x)",
					l.Layer, l.GedgesPerSec, ref, ratio)
			}
		}
		log.Printf("deep-obs: engine profile %.3f Gedges/s over %d batches (BENCH_infer ref %.3f, per-layer within 2x)",
			snap.GedgesPerSec, snap.Batches, ref)
	} else {
		log.Printf("deep-obs: engine profile %.3f Gedges/s over %d batches (no BENCH_infer.json radix record to compare)",
			snap.GedgesPerSec, snap.Batches)
	}
	return breached.FastBurn, snap.GedgesPerSec, nil
}

// benchInferGedges reads the most recent radix-kernel edges/s record from
// a BENCH_infer.json array, or 0 when the file or record is absent.
func benchInferGedges(path string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var recs []struct {
		Radix *struct {
			EdgesPerSec float64 `json:"edges_per_sec"`
		} `json:"radix"`
	}
	if json.Unmarshal(data, &recs) != nil {
		return 0
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if r := recs[i].Radix; r != nil && r.EdgesPerSec > 0 {
			return r.EdgesPerSec / 1e9
		}
	}
	return 0
}

// runQoSPhase is the starvation-freedom acceptance phase: measure
// interactive p99 latency on an idle server, saturate the model with a
// background flood, and prove that (a) interactive traffic is not starved —
// its scheduler queue-wait p99 stays tightly bounded, and its end-to-end
// p99 stays within 5× the unloaded value (with an absolute floor, because
// on small CI machines a saturating flood contends for the CPU itself,
// which no in-process scheduler can prevent — the queue-wait bound is the
// precise starvation signal, the end-to-end bound the gross one); (b) the
// background class still makes progress (no starvation either way); and
// (c) an already-expired deadline is shed with 504 instead of executing.
// Interactive responses under flood are also checked bit-identical, so
// priority scheduling never changes results.
func runQoSPhase(client *http.Client, url string, reg *serve.Registry, m *serve.Model, expected [][]float64, in *sparse.Dense) (serveBenchQoS, error) {
	var q serveBenchQoS
	classes := reg.Classes()
	if _, ok := classes[serve.ClassInteractive]; !ok {
		log.Printf("qos: class set %v has no %q class; skipping starvation phase", classes, serve.ClassInteractive)
		return q, nil
	}
	if _, ok := classes[serve.ClassBackground]; !ok {
		log.Printf("qos: class set %v has no %q class; skipping starvation phase", classes, serve.ClassBackground)
		return q, nil
	}
	baseRows := in.Rows()

	const probes = 200
	probe := func() (lat, qwait []time.Duration, err error) {
		lat = make([]time.Duration, 0, probes)
		qwait = make([]time.Duration, 0, probes)
		for i := 0; i < probes; i++ {
			r := i % baseRows
			start := time.Now()
			status, _, resp, err := postInfer(client, url, serve.InferRequest{
				Model: "selftest", Class: serve.ClassInteractive, Inputs: [][]float64{in.RowSlice(r)},
			})
			if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
				return nil, nil, fmt.Errorf("qos: interactive probe %d: status %d err %v", i, status, err)
			}
			if resp.Class != serve.ClassInteractive {
				return nil, nil, fmt.Errorf("qos: probe %d scheduled as class %q, want %q", i, resp.Class, serve.ClassInteractive)
			}
			for c, v := range resp.Outputs[0] {
				if v != expected[r][c] {
					return nil, nil, fmt.Errorf("qos: probe %d col %d diverged under priority scheduling", i, c)
				}
			}
			lat = append(lat, time.Since(start))
			qwait = append(qwait, time.Duration(resp.QueueWaitMs*float64(time.Millisecond)))
		}
		return lat, qwait, nil
	}

	unloaded, _, err := probe()
	if err != nil {
		return q, err
	}

	// Saturating background flood: multi-row requests from several workers
	// (bodies pre-marshaled so the flood's pressure lands on the server's
	// queues, not on client-side JSON encoding), shedding 429s with
	// client-side pacing, until the phase ends.
	const (
		floodWorkers = 4
		rowsPerReq   = 16
	)
	stop := make(chan struct{})
	var bgRows atomic.Int64
	var bgErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < floodWorkers; w++ {
		reqRows := make([][]float64, rowsPerReq)
		for i := range reqRows {
			reqRows[i] = in.RowSlice((w + i) % baseRows)
		}
		body, err := json.Marshal(serve.InferRequest{
			Model: "selftest", Class: serve.ClassBackground, Inputs: reqRows,
		})
		if err != nil {
			close(stop)
			return q, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					bgErr.CompareAndSwap(nil, fmt.Errorf("qos: background flood: %w", err))
					return
				}
				status := resp.StatusCode
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case status == http.StatusOK:
					bgRows.Add(rowsPerReq)
				case status == http.StatusTooManyRequests:
					time.Sleep(2 * time.Millisecond) // backpressure; pace and re-offer
				default:
					bgErr.CompareAndSwap(nil, fmt.Errorf("qos: background flood: status %d", status))
					return
				}
			}
		}()
	}
	// Let the flood saturate the queues before measuring.
	warmDeadline := time.Now().Add(10 * time.Second)
	for bgRows.Load() < rowsPerReq && bgErr.Load() == nil && time.Now().Before(warmDeadline) {
		time.Sleep(time.Millisecond)
	}

	// Scrape /metrics before and after the loaded probe window: the
	// starvation assertion below must hold on the EXPORTED queue-wait
	// histogram — what an operator's dashboard would alert on — not on a
	// client-side tally.
	beforeScrape, err := loadgen.ScrapeMetrics(context.Background(), client, url)
	if err != nil {
		close(stop)
		return q, err
	}
	loadedStart := time.Now()
	bgBefore := bgRows.Load()
	loaded, loadedWait, probeErr := probe()
	loadedElapsed := time.Since(loadedStart)
	bgDuring := bgRows.Load() - bgBefore
	afterScrape, scrapeErr := loadgen.ScrapeMetrics(context.Background(), client, url)
	close(stop)
	wg.Wait()
	if probeErr != nil {
		return q, probeErr
	}
	if e := bgErr.Load(); e != nil {
		return q, e.(error)
	}
	if scrapeErr != nil {
		return q, scrapeErr
	}

	p99u := loadgen.Percentile(unloaded, 99)
	p99l := loadgen.Percentile(loaded, 99)
	// The precise starvation signal: time interactive rows sat in the
	// scheduler's queues, read back from the exported per-model×class
	// histogram windowed to the loaded probe interval. With weight 8
	// against a saturated background queue, an interactive row rides one
	// of the next couple of batches; 25ms is orders of magnitude above
	// that but far below what a starved row (behind hundreds of queued
	// background rows) would see.
	wantWait := map[string]string{"model": "selftest", "class": serve.ClassInteractive}
	wb, okB := obs.ParseHistogram(beforeScrape, "radixserve_queue_wait_seconds", wantWait)
	wa, okA := obs.ParseHistogram(afterScrape, "radixserve_queue_wait_seconds", wantWait)
	if !okA {
		return q, fmt.Errorf("qos: radixserve_queue_wait_seconds missing from /metrics")
	}
	win := wa
	if okB {
		win = wa.Sub(wb)
	}
	if win.Count == 0 {
		return q, fmt.Errorf("qos: exported queue-wait histogram recorded no interactive rows in the loaded window")
	}
	waitP99 := time.Duration(win.Quantile(0.99) * float64(time.Second))
	clientWaitP99 := loadgen.Percentile(loadedWait, 99)
	if waitBound := 25 * time.Millisecond; waitP99 > waitBound {
		return q, fmt.Errorf("qos: exported interactive queue-wait p99 %v under background flood exceeds %v (client-observed %v): interactive traffic starved in the scheduler",
			waitP99.Round(time.Microsecond), waitBound, clientWaitP99.Round(time.Microsecond))
	}
	bound := 5 * p99u
	if floor := 100 * time.Millisecond; bound < floor {
		bound = floor
	}
	if p99l > bound {
		return q, fmt.Errorf("qos: interactive p99 %v under background flood exceeds bound %v (5× unloaded %v): interactive traffic starved",
			p99l.Round(time.Microsecond), bound, p99u.Round(time.Microsecond))
	}
	if bgDuring == 0 {
		return q, fmt.Errorf("qos: background completed no rows during the %v probe window: background starved", loadedElapsed.Round(time.Millisecond))
	}

	// Deadline shedding: a request whose budget is already dead must be
	// answered 504 without executing.
	status, _, _, err := postInfer(client, url, serve.InferRequest{
		Model: "selftest", Class: serve.ClassBackground, DeadlineMs: 0.0001, Inputs: [][]float64{in.RowSlice(0)},
	})
	if err != nil || status != http.StatusGatewayTimeout {
		return q, fmt.Errorf("qos: expired deadline: status %d err %v, want 504", status, err)
	}
	expired := m.Metrics().Expired.Load()
	if expired == 0 {
		return q, fmt.Errorf("qos: expired-row counter still zero after a shed")
	}

	q = serveBenchQoS{
		UnloadedP99Ms:         float64(p99u) / float64(time.Millisecond),
		LoadedP99Ms:           float64(p99l) / float64(time.Millisecond),
		P99Bound:              float64(bound) / float64(time.Millisecond),
		QueueWaitP99Ms:        float64(waitP99) / float64(time.Millisecond),
		InteractiveRowsPerSec: float64(probes) / loadedElapsed.Seconds(),
		BackgroundRowsPerSec:  float64(bgDuring) / loadedElapsed.Seconds(),
		BackgroundRows:        int(bgDuring),
		ExpiredShed:           expired,
	}
	log.Printf("qos: interactive p99 %.2fms unloaded → %.2fms under background flood (bound %.2fms, queue-wait p99 %.3fms); during probes interactive %.0f rows/s, background %.0f rows/s (%d rows, no starvation); expired deadline shed with 504",
		q.UnloadedP99Ms, q.LoadedP99Ms, q.P99Bound, q.QueueWaitP99Ms, q.InteractiveRowsPerSec, q.BackgroundRowsPerSec, q.BackgroundRows)
	return q, nil
}

// modelGeneration reads GET /v1/models and returns the named model's
// engine-pool generation.
func modelGeneration(client *http.Client, url, name string) (int, error) {
	infos, err := serve.ListModels(context.Background(), client, url)
	if err != nil {
		return 0, err
	}
	for _, info := range infos {
		if info.Name == name {
			return info.Generation, nil
		}
	}
	return 0, fmt.Errorf("model %q not listed", name)
}

// runControlPlanePhase exercises the live model control plane end to end:
// register a second model at runtime from graphio config JSON, prove its
// outputs bit-identical to the boot-time registration of the same config,
// hot-reload it repeatedly under concurrent load with zero failed or
// bit-divergent requests, then unregister it and observe 404.
func runControlPlanePhase(client *http.Client, url string, cfg core.Config, engines int, expected [][]float64, in *sparse.Dense) (serveBenchHotReload, error) {
	var hr serveBenchHotReload
	cfgJSON, err := graphio.MarshalConfig(cfg)
	if err != nil {
		return hr, err
	}
	regBody, err := json.Marshal(serve.RegisterRequest{Name: "hotswap", Config: cfgJSON, Engines: engines})
	if err != nil {
		return hr, err
	}
	status, body, err := cliutil.DoJSON(context.Background(), client, http.MethodPost, url+"/v1/models", regBody)
	if err != nil || status != http.StatusCreated {
		return hr, fmt.Errorf("control plane: register: status %d err %v (%s)", status, err, body)
	}

	// Bit-identity: a model registered over the wire must serve exactly
	// what the boot-time registration of the same config serves.
	rows := in.Rows()
	for r := 0; r < rows; r++ {
		status, _, resp, err := postInfer(client, url, serve.InferRequest{Model: "hotswap", Inputs: [][]float64{in.RowSlice(r)}})
		if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
			return hr, fmt.Errorf("control plane: row %d: status %d err %v", r, status, err)
		}
		for c, v := range resp.Outputs[0] {
			if v != expected[r][c] {
				return hr, fmt.Errorf("control plane: row %d col %d: runtime registration diverged from boot-time (%v != %v)", r, c, v, expected[r][c])
			}
		}
	}
	log.Printf("control plane: runtime-registered model bit-identical to boot-time registration (%d rows)", rows)

	// Hot-reload under concurrent load: every request across every swap
	// must succeed and stay bit-identical (same config, deterministic
	// generation → same weights in every pool generation).
	const (
		reloads     = 3
		loadWorkers = 4
	)
	stop := make(chan struct{})
	var completed, failed atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := i % rows
				status, _, resp, err := postInfer(client, url, serve.InferRequest{Model: "hotswap", Inputs: [][]float64{in.RowSlice(r)}})
				if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("row %d: status %d err %v", r, status, err))
					return
				}
				for c, v := range resp.Outputs[0] {
					if v != expected[r][c] {
						failed.Add(1)
						firstErr.CompareAndSwap(nil, fmt.Errorf("row %d col %d diverged mid-reload", r, c))
						return
					}
				}
				completed.Add(1)
			}
		}(w)
	}
	// Pace each swap against observed traffic so every reload genuinely
	// races in-flight requests.
	waitRows := func(target int64) {
		deadline := time.Now().Add(15 * time.Second)
		for completed.Load() < target && failed.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < reloads; i++ {
		waitRows(int64((i + 1) * 16))
		status, body, err := cliutil.DoJSON(context.Background(), client, http.MethodPut, url+"/v1/models/hotswap", regBody)
		if err != nil || status != http.StatusOK {
			close(stop)
			wg.Wait()
			return hr, fmt.Errorf("control plane: reload %d: status %d err %v (%s)", i, status, err, body)
		}
	}
	waitRows(int64((reloads + 1) * 16))
	close(stop)
	wg.Wait()
	hr = serveBenchHotReload{Reloads: reloads, Requests: int(completed.Load() + failed.Load()), Failed: int(failed.Load())}
	if failed.Load() > 0 {
		return hr, fmt.Errorf("control plane: %d of %d requests failed across %d hot reloads (first: %v)",
			failed.Load(), hr.Requests, reloads, firstErr.Load())
	}
	gen, err := modelGeneration(client, url, "hotswap")
	if err != nil {
		return hr, err
	}
	if gen != 1+reloads {
		return hr, fmt.Errorf("control plane: generation %d after %d reloads, want %d", gen, reloads, 1+reloads)
	}
	log.Printf("control plane: %d hot reloads raced %d requests, zero failures, generation %d", reloads, hr.Requests, gen)

	status, body, err = cliutil.DoJSON(context.Background(), client, http.MethodDelete, url+"/v1/models/hotswap", nil)
	if err != nil || status != http.StatusOK {
		return hr, fmt.Errorf("control plane: unregister: status %d err %v (%s)", status, err, body)
	}
	status, _, _, err = postInfer(client, url, serve.InferRequest{Model: "hotswap", Inputs: [][]float64{in.RowSlice(0)}})
	if err != nil || status != http.StatusNotFound {
		return hr, fmt.Errorf("control plane: infer after unregister: status %d err %v, want 404", status, err)
	}
	log.Printf("control plane: unregistered; inference now 404")
	return hr, nil
}
