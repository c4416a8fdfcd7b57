package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/cliutil"
	"github.com/radix-net/radixnet/internal/cluster"
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

// clusterBenchRecord is the BENCH_cluster.json schema: one end-to-end
// measurement of the routed fleet, appended per selftest run so the file
// records the cluster-performance trajectory (see README.md).
type clusterBenchRecord struct {
	Benchmark  string                `json:"benchmark"`
	Date       string                `json:"date"`
	GoVersion  string                `json:"go_version"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	GitSHA     string                `json:"git_sha"`
	Backends   int                   `json:"backends"`
	Replicas   int                   `json:"replicas"`
	Vnodes     int                   `json:"vnodes"`
	Models     int                   `json:"models"`
	Network    clusterBenchNet       `json:"network"`
	Levels     []clusterBenchLevel   `json:"levels"`
	Failover   clusterBenchFailover  `json:"failover"`
	HotReload  clusterBenchHotReload `json:"hot_reload"`
	QoS        clusterBenchQoS       `json:"qos"`
	// SLOFastBurn is the fast-window burn rate the router's fleet-evaluated
	// GET /v1/slo reports for the deliberately breached objective;
	// EngineGedges the fastest backend engine throughput visible in the
	// merged /metrics exposition.
	SLOFastBurn  float64 `json:"slo_fast_burn"`
	EngineGedges float64 `json:"engine_gedges_s"`
	BitIdentical bool    `json:"bit_identical"`
}

// clusterBenchQoS records the routed starvation-freedom phase: interactive
// p99 through the router with the fleet idle vs under a saturating routed
// background flood, plus both classes' delivered rates.
type clusterBenchQoS struct {
	UnloadedP99Ms         float64 `json:"interactive_unloaded_p99_ms"`
	LoadedP99Ms           float64 `json:"interactive_loaded_p99_ms"`
	P99Bound              float64 `json:"p99_bound_ms"`
	QueueWaitP99Ms        float64 `json:"interactive_queue_wait_p99_ms"`
	InteractiveRowsPerSec float64 `json:"interactive_rows_per_sec"`
	BackgroundRowsPerSec  float64 `json:"background_rows_per_sec"`
	BackgroundRows        int     `json:"background_rows"`
}

type clusterBenchNet struct {
	LayerWidth int `json:"layer_width"`
	Layers     int `json:"layers"`
	Weights    int `json:"weights"`
}

type clusterBenchLevel struct {
	Concurrency int     `json:"concurrency"`
	Rows        int     `json:"rows"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	// LatencyP50Ms/LatencyP99Ms come from the router's fleet-merged
	// radixrouter_model_request_latency_seconds exposition (backend
	// histograms summed bucket-wise), windowed to this level by a
	// before/after scrape; log-bucketed, so quantiles carry at most 2×
	// resolution error.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

type clusterBenchFailover struct {
	KilledBackend string `json:"killed_backend"`
	Requests      int    `json:"requests"`
	Failed        int    `json:"failed"`
	Failovers     int64  `json:"failovers"`
}

type clusterBenchHotReload struct {
	Replicas int `json:"replicas"`
	Reloads  int `json:"reloads"`
	Requests int `json:"requests"`
	Failed   int `json:"failed"`
}

// postInfer sends one inference request (a serve.InferRequest or its
// pre-marshaled body) and decodes the serve response.
func postInfer(client *http.Client, url string, req any) (int, string, serve.InferResponse, error) {
	return loadgen.Post[serve.InferResponse](context.Background(), client, url, req)
}

// runSelftest drives the sharded fleet end-to-end: nBackends in-process
// radixserve instances, models placed by the router's ring, bit-identity
// against direct Engine.Infer, routed throughput, and a mid-load backend
// kill that must complete with zero failed requests. On success it appends
// the measurement to benchPath.
func runSelftest(benchPath string, nBackends, replicas int) error {
	if nBackends < 2 {
		nBackends = 2 // failover needs somewhere to fail over to
	}
	if replicas < 2 {
		replicas = 2
	}

	// The selftest network: radix [4,4,4] → width 64, 3 layers. Small
	// enough that a whole fleet of them boots in milliseconds, big enough
	// that batching and forwarding are exercised.
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4, 4)}, nil)
	if err != nil {
		return err
	}
	models := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	pol := serve.Policy{MaxBatch: 32, MaxLatency: time.Millisecond}

	// Boot the backends empty; models are registered once the ring decides
	// who owns what.
	regs := make(map[string]*serve.Registry, nBackends)
	srvs := make(map[string]*serve.Server, nBackends)
	var addrs []string
	for i := 0; i < nBackends; i++ {
		reg := serve.NewRegistry(pol)
		// Profile every engine batch so the merged /metrics exposition
		// carries radixserve_engine_gedges_per_sec for the fleet-obs phase.
		reg.SetProfileEvery(1)
		srv := serve.NewServer(reg, "127.0.0.1:0")
		addr, err := srv.Start()
		if err != nil {
			return err
		}
		regs[addr] = reg
		srvs[addr] = srv
		addrs = append(addrs, addr)
	}
	defer func() {
		for _, srv := range srvs {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
			cancel()
		}
	}()

	// Two SLO objectives arm the router's fleet-evaluated GET /v1/slo: a
	// loose one every request meets and a 1µs latency target nothing can,
	// which the fleet-obs phase expects to see "violated".
	rtObjectives, err := slo.ParseObjectives([]string{"shard-0::10s:50", "shard-0::1us:99"})
	if err != nil {
		return err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Addr:       "127.0.0.1:0",
		Backends:   addrs,
		Replicas:   replicas,
		MaxBackoff: 100 * time.Millisecond,
		// The selftest doubles as an observability smoke test: profiling
		// endpoints and the trace ring must answer on the router too.
		Pprof:      true,
		TraceDepth: 256,
		SLO:        slo.Config{Objectives: rtObjectives},
		Set: cluster.SetConfig{
			ProbeInterval: 100 * time.Millisecond,
			FailAfter:     2,
		},
	})
	if err != nil {
		return err
	}
	buildStart := time.Now()
	var weights, layers int
	for _, model := range models {
		owners := rt.Placement(model)
		for _, id := range owners {
			m, err := regs[id].Register(model, cfg, 1)
			if err != nil {
				return err
			}
			info := m.Info()
			weights, layers = info.Weights, info.Layers
		}
		log.Printf("model %s → %v", model, owners)
	}
	width := cfg.LayerWidths()[0]
	log.Printf("fleet: %d backends × %d models (width %d, %d layers, %d weights each, %d replicas), built in %v",
		nBackends, len(models), width, layers, weights, replicas, time.Since(buildStart).Round(time.Millisecond))

	bound, err := rt.Start()
	if err != nil {
		return err
	}
	url := "http://" + bound
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			log.Printf("router shutdown: %v", err)
		}
	}()

	// Per-row ground truth from a private engine over the same config —
	// generation is deterministic, so weights match every replica's.
	const baseRows = 48
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

	// Phase 1 — bit-identity through the router, for every model (so every
	// backend and every ring placement is exercised), with routing pinned
	// to each model's owners.
	for _, model := range models {
		owners := rt.Placement(model)
		for r := 0; r < baseRows; r++ {
			status, by, resp, err := postInfer(client, url, serve.InferRequest{Model: model, Inputs: [][]float64{in.RowSlice(r)}})
			if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
				return fmt.Errorf("%s row %d: status %d err %v", model, r, status, err)
			}
			if !slices.Contains(owners, by) {
				return fmt.Errorf("%s row %d answered by %s, not an owner %v", model, r, by, owners)
			}
			for c, v := range resp.Outputs[0] {
				if v != expected[r][c] {
					return fmt.Errorf("%s row %d col %d: got %v want %v (not bit-identical to direct Engine.Infer)",
						model, r, c, v, expected[r][c])
				}
			}
		}
	}
	log.Printf("bit-identity: %d rows × %d models routed, all bit-identical to direct Engine.Infer", baseRows, len(models))

	// Phase 2 — routed throughput at several client concurrency levels,
	// spread across all models so the whole fleet carries load.
	var levels []clusterBenchLevel
	for _, conc := range []int{1, 4, 16} {
		rows := baseRows * 4 * conc
		beforeScrape, err := loadgen.ScrapeMetrics(context.Background(), client, url)
		if err != nil {
			return err
		}
		var next, failures atomic.Int64
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
					model := models[int(i)%len(models)]
					r := int(i) % baseRows
					status, _, resp, err := postInfer(client, url, serve.InferRequest{Model: model, Inputs: [][]float64{in.RowSlice(r)}})
					if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
						failures.Add(1)
						firstErr.CompareAndSwap(nil, fmt.Errorf("row %d: status %d err %v", i, status, err))
						return
					}
					if resp.Outputs[0][0] != expected[r][0] {
						failures.Add(1)
						firstErr.CompareAndSwap(nil, fmt.Errorf("row %d diverged", i))
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if failures.Load() > 0 {
			return fmt.Errorf("throughput concurrency %d: %d failures (first: %v)", conc, failures.Load(), firstErr.Load())
		}
		lvl := clusterBenchLevel{Concurrency: conc, Rows: rows, RowsPerSec: float64(rows) / elapsed.Seconds()}

		// Latency quantiles for this level from the router's fleet-merged
		// exposition, windowed by the before/after scrape so only this
		// level's traffic counts. A nil label want merges across the four
		// models — the level spread its rows over all of them.
		afterScrape, err := loadgen.ScrapeMetrics(context.Background(), client, url)
		if err != nil {
			return err
		}
		ha, okA := obs.ParseHistogram(afterScrape, "radixrouter_model_request_latency_seconds", nil)
		hb, okB := obs.ParseHistogram(beforeScrape, "radixrouter_model_request_latency_seconds", nil)
		if !okA {
			return fmt.Errorf("throughput concurrency %d: merged latency histogram missing from router /metrics", conc)
		}
		win := ha
		if okB {
			win = ha.Sub(hb)
		}
		if win.Count != uint64(rows) {
			return fmt.Errorf("throughput concurrency %d: merged histogram window counts %d requests, want %d (bucket-wise fleet merge broken?)",
				conc, win.Count, rows)
		}
		lvl.LatencyP50Ms = win.Quantile(0.50) * 1e3
		lvl.LatencyP99Ms = win.Quantile(0.99) * 1e3
		if lvl.LatencyP99Ms <= 0 || lvl.LatencyP99Ms > 20000 {
			return fmt.Errorf("throughput concurrency %d: merged exported p99 %.2fms implausible", conc, lvl.LatencyP99Ms)
		}
		levels = append(levels, lvl)
		log.Printf("concurrency %2d: %d routed rows in %v = %.0f rows/s (fleet-merged p50 %.2fms p99 %.2fms)",
			conc, rows, elapsed.Round(time.Millisecond), lvl.RowsPerSec, lvl.LatencyP50Ms, lvl.LatencyP99Ms)
	}

	// Phase 3 — model control plane through the router: register a new
	// model fleet-wide at runtime, prove bit-identity, hot-reload it on
	// every replica under concurrent load with zero failures, unregister,
	// observe 404. Runs while the whole fleet is alive, so placement-aware
	// registration can reach every intended owner.
	hr, err := runControlPlanePhase(client, url, rt, regs, cfg, expected, in)
	if err != nil {
		return err
	}

	// Phase 3b — QoS through the router: a saturating routed background
	// flood must not starve interactive probes of the same model, and the
	// class must round-trip (body → router header → backend scheduler →
	// response). Runs while the fleet is whole, before the kill phase.
	qosRec, err := runQoSPhase(client, url, models[1], expected, in)
	if err != nil {
		return err
	}

	// Phase 3c — observability through the router: a caller-chosen trace ID
	// survives the client → router → backend → response round trip, the
	// router retains the trace with route/attempt spans, and profiling
	// endpoints answer.
	if err := runObsPhase(client, url, models[0], in); err != nil {
		return err
	}

	// Phase 3d — fleet-level observability: merged exemplars resolving in
	// the router's trace ring, backend engine profiles through the merge,
	// and the fleet-evaluated SLO engine flipping to "violated" on the
	// unmeetable objective. Runs while the fleet is whole.
	sloBurn, gedges, err := runFleetObsPhase(client, url, models[0], in)
	if err != nil {
		return err
	}

	// Phase 4 — kill a backend mid-load. Every request must still succeed:
	// in-flight rows drain through the dying node's graceful shutdown, and
	// everything after fails over to the surviving replica. Zero failures
	// is the acceptance bar.
	victimModel := models[0]
	owners := rt.Placement(victimModel)
	victim := owners[0]
	const (
		floodWorkers  = 8
		floodRequests = 400
		killAfter     = floodRequests / 4
	)
	var sent, failed, killed atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	killGate := make(chan struct{})
	for w := 0; w < floodWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := sent.Add(1)
				if i > floodRequests {
					return
				}
				if i == killAfter {
					close(killGate)
				}
				r := int(i) % baseRows
				status, _, resp, err := postInfer(client, url, serve.InferRequest{Model: victimModel, Inputs: [][]float64{in.RowSlice(r)}})
				if err != nil || status != http.StatusOK {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("request %d: status %d err %v", i, status, err))
					continue
				}
				if resp.Outputs[0][0] != expected[r][0] {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("request %d diverged after failover", i))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-killGate
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srvs[victim].Shutdown(ctx) //nolint:errcheck // the point is killing it
		killed.Store(1)
	}()
	wg.Wait()
	if killed.Load() != 1 {
		return fmt.Errorf("failover phase never killed the backend (load too short?)")
	}
	failovers := rt.Metrics().Failovers
	if failed.Load() > 0 {
		return fmt.Errorf("failover: %d of %d requests failed after killing %s (first: %v)",
			failed.Load(), floodRequests, victim, firstErr.Load())
	}
	if failovers == 0 {
		return fmt.Errorf("failover: backend %s killed mid-load but the router never failed over", victim)
	}
	log.Printf("failover: killed %s after %d requests; %d/%d succeeded (%d failover retries), zero failures",
		victim, killAfter, floodRequests-int(failed.Load()), floodRequests, failovers)

	rec := clusterBenchRecord{
		Benchmark:  "cluster-router",
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     cliutil.GitSHA(),
		Backends:   nBackends,
		Replicas:   replicas,
		Vnodes:     cluster.DefaultVnodes,
		Models:     len(models),
		Network:    clusterBenchNet{LayerWidth: width, Layers: layers, Weights: weights},
		Levels:     levels,
		Failover: clusterBenchFailover{
			KilledBackend: victim,
			Requests:      floodRequests,
			Failed:        int(failed.Load()),
			Failovers:     failovers,
		},
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

	// Phase 5 — the autoscale control loop, on its own larger fleet:
	// zipfian popularity, static-replica baseline vs autoscaled tail
	// latency, zone-diverse scale-out, and SLO-triggered actuation.
	return runAutoscalePhase(benchPath)
}

// runObsPhase smokes the routed observability surface: an explicit
// X-Radix-Trace-Id round-trips client → router → backend → response (body
// and header), the backend's per-stage span breakdown rides the relayed
// response, the router retains the trace with its own route/attempt spans
// in GET /debug/traces, and the opt-in pprof endpoints answer.
func runObsPhase(client *http.Client, url, model string, in *sparse.Dense) error {
	const traceID = "cafe0000cafe0000cafe0000cafe0000"
	body, err := json.Marshal(serve.InferRequest{Model: model, Inputs: [][]float64{in.RowSlice(0)}})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTraceID, traceID)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("obs: traced request: %w", err)
	}
	var out serve.InferResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decodeErr != nil {
		return fmt.Errorf("obs: traced request: status %d decode err %v", resp.StatusCode, decodeErr)
	}
	if got := resp.Header.Get(obs.HeaderTraceID); got != traceID {
		return fmt.Errorf("obs: router response trace header %q, want %q", got, traceID)
	}
	if out.TraceID != traceID {
		return fmt.Errorf("obs: backend response body trace ID %q, want %q (header lost in forwarding?)", out.TraceID, traceID)
	}
	if len(out.Spans) < 5 {
		return fmt.Errorf("obs: relayed response carries %d backend spans, want >= 5: %+v", len(out.Spans), out.Spans)
	}

	tr, err := client.Get(url + "/debug/traces?n=16")
	if err != nil {
		return fmt.Errorf("obs: /debug/traces: %w", err)
	}
	var view struct {
		Total  uint64       `json:"total"`
		Recent []*obs.Trace `json:"recent"`
	}
	decodeErr = json.NewDecoder(tr.Body).Decode(&view)
	tr.Body.Close()
	if decodeErr != nil {
		return fmt.Errorf("obs: /debug/traces decode: %w", decodeErr)
	}
	var found *obs.Trace
	for _, t := range view.Recent {
		if t.ID == traceID {
			found = t
		}
	}
	if found == nil {
		return fmt.Errorf("obs: trace %s not retained in router /debug/traces (%d total)", traceID, view.Total)
	}
	hasRoute := false
	var attempt, queue, execute *obs.Span
	for i := range found.Spans {
		s := &found.Spans[i]
		switch {
		case s.Name == "route":
			hasRoute = true
		case strings.HasPrefix(s.Name, "attempt:"):
			attempt = s
		case s.Name == "queue":
			queue = s
		case s.Name == "execute":
			execute = s
		}
	}
	if !hasRoute || attempt == nil || found.Backend == "" {
		return fmt.Errorf("obs: router trace missing route/attempt spans or backend attribution: %+v", found)
	}
	// The stitched view: the backend's own spans ride the X-Radix-Spans
	// response header and are grafted under the router's attempt span,
	// rebased to the router's clock — so one trace shows both tiers with
	// consistent offsets (backend work cannot start before the attempt).
	if queue == nil || execute == nil {
		return fmt.Errorf("obs: router trace not stitched — backend queue/execute spans missing: %+v", found.Spans)
	}
	const slack = 1e-3 // ms; offsets are rendered at µs resolution
	if queue.StartMs < attempt.StartMs-slack || execute.StartMs < queue.StartMs-slack {
		return fmt.Errorf("obs: stitched span offsets not monotonic: attempt %.3fms, queue %.3fms, execute %.3fms",
			attempt.StartMs, queue.StartMs, execute.StartMs)
	}
	if end := execute.StartMs + execute.DurMs; end > found.TotalMs+slack {
		return fmt.Errorf("obs: stitched execute span ends at %.3fms, beyond the trace total %.3fms", end, found.TotalMs)
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
	log.Printf("obs: trace %s round-tripped client → router → backend (%d backend spans relayed); router trace stitched: route+attempt+queue+execute with monotonic offsets; pprof live",
		traceID, len(out.Spans))
	return nil
}

// runFleetObsPhase exercises the router's fleet-level observability: the
// merged histogram exposition must carry exemplar annotations that resolve
// in the router's own trace ring, the backend engine profiles must surface
// through the merge, and the fleet-evaluated SLO engine must report the
// deliberately breached 1µs objective as "violated" (and the loose 10s one
// as "ok"). Returns the breached objective's fast burn and the fastest
// merged engine Gedges/s for the bench record.
func runFleetObsPhase(client *http.Client, url, model string, in *sparse.Dense) (sloFastBurn, gedges float64, err error) {
	// Fresh probes: their router-minted trace IDs become the most recent
	// exemplars in the buckets they land in, and are retained in the
	// router's trace ring.
	for i := 0; i < 4; i++ {
		status, _, _, err := postInfer(client, url, serve.InferRequest{Model: model, Inputs: [][]float64{in.RowSlice(i)}})
		if err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("fleet-obs: probe %d: status %d err %v", i, status, err)
		}
	}
	scrape, err := loadgen.ScrapeMetrics(context.Background(), client, url)
	if err != nil {
		return 0, 0, err
	}
	prefix := fmt.Sprintf("radixrouter_model_request_latency_seconds_bucket{model=%q", model)
	ids := loadgen.ExemplarTraceIDs(scrape, prefix)
	if len(ids) == 0 {
		return 0, 0, fmt.Errorf("fleet-obs: no exemplar annotations on the fleet-merged latency buckets")
	}
	resolved := ""
	for _, id := range ids {
		tr, err := client.Get(url + "/debug/traces?trace=" + id)
		if err != nil {
			return 0, 0, fmt.Errorf("fleet-obs: ?trace=: %w", err)
		}
		var view struct {
			Trace *obs.Trace `json:"trace"`
		}
		decodeErr := json.NewDecoder(tr.Body).Decode(&view)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK || decodeErr != nil {
			continue
		}
		if view.Trace != nil && view.Trace.ID == id {
			resolved = id
			break
		}
	}
	if resolved == "" {
		return 0, 0, fmt.Errorf("fleet-obs: none of %d merged exemplar trace IDs resolved via router /debug/traces?trace=", len(ids))
	}

	// Backend engine profiles surface through the merge, backend-labeled.
	for _, line := range strings.Split(scrape, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "radixserve_engine_gedges_per_sec{") {
			continue
		}
		if _, _, valStr, ok := obs.SplitSeries(line); ok {
			var v float64
			if _, err := fmt.Sscanf(valStr, "%g", &v); err == nil && v > gedges {
				gedges = v
			}
		}
	}
	if gedges <= 0 {
		return 0, 0, fmt.Errorf("fleet-obs: no radixserve_engine_gedges_per_sec series in the merged exposition")
	}

	// The fleet-evaluated SLO engine: the 1µs objective is unmeetable, so
	// with the whole fleet lifetime inside both burn windows it must read
	// "violated"; the 10s objective must stay "ok".
	sv, err := client.Get(url + "/v1/slo")
	if err != nil {
		return 0, 0, fmt.Errorf("fleet-obs: /v1/slo: %w", err)
	}
	var view slo.View
	decodeErr := json.NewDecoder(sv.Body).Decode(&view)
	sv.Body.Close()
	if sv.StatusCode != http.StatusOK || decodeErr != nil {
		return 0, 0, fmt.Errorf("fleet-obs: /v1/slo: status %d err %v", sv.StatusCode, decodeErr)
	}
	var breached, loose *slo.Status
	for i := range view.Statuses {
		st := &view.Statuses[i]
		if st.Model != model || st.Class != "" {
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
		return 0, 0, fmt.Errorf("fleet-obs: /v1/slo missing objectives for %s (%d statuses)", model, len(view.Statuses))
	}
	if breached.State != slo.StateViolated {
		return 0, 0, fmt.Errorf("fleet-obs: unmeetable 1µs objective reports %q (fast burn %.2f, slow %.2f), want %q",
			breached.State, breached.FastBurn, breached.SlowBurn, slo.StateViolated)
	}
	if loose.State != slo.StateOK {
		return 0, 0, fmt.Errorf("fleet-obs: loose 10s objective reports %q (fast burn %.2f), want %q",
			loose.State, loose.FastBurn, slo.StateOK)
	}
	log.Printf("fleet-obs: merged exemplar trace %s resolved via router ?trace=; engines peak %.3f Gedges/s through the merge; /v1/slo: 1µs objective %s (fast burn %.1f), 10s objective %s",
		resolved, gedges, breached.State, breached.FastBurn, loose.State)
	return breached.FastBurn, gedges, nil
}

// runQoSPhase proves starvation-freedom through the router: interactive
// p99 against one model stays bounded while a background flood saturates
// the same model, background still progresses, and the class annotation
// survives the body → router header → backend scheduler round trip. As in
// the radixserve selftest, the scheduler queue-wait p99 is the precise
// starvation bound and the end-to-end p99 (with an absolute floor for
// small CI machines, where a saturating flood contends for the CPU itself)
// the gross one.
func runQoSPhase(client *http.Client, url, model string, expected [][]float64, in *sparse.Dense) (clusterBenchQoS, error) {
	var q clusterBenchQoS
	baseRows := in.Rows()

	const probes = 120
	probe := func() (lat, qwait []time.Duration, err error) {
		lat = make([]time.Duration, 0, probes)
		qwait = make([]time.Duration, 0, probes)
		for i := 0; i < probes; i++ {
			r := i % baseRows
			start := time.Now()
			status, _, resp, err := postInfer(client, url, serve.InferRequest{
				Model: model, Class: "interactive", Inputs: [][]float64{in.RowSlice(r)},
			})
			if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
				return nil, nil, fmt.Errorf("qos: interactive probe %d: status %d err %v", i, status, err)
			}
			if resp.Class != "interactive" {
				return nil, nil, fmt.Errorf("qos: probe %d scheduled as class %q, want interactive (class lost in routing?)", i, resp.Class)
			}
			if resp.Outputs[0][0] != expected[r][0] {
				return nil, nil, fmt.Errorf("qos: probe %d diverged under priority scheduling", i)
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
		body, err := json.Marshal(serve.InferRequest{Model: model, Class: "background", Inputs: reqRows})
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
					// Background gets no router-side backoff by design; the
					// client owns the pacing.
					time.Sleep(2 * time.Millisecond)
				default:
					bgErr.CompareAndSwap(nil, fmt.Errorf("qos: background flood: status %d", status))
					return
				}
			}
		}()
	}
	warmDeadline := time.Now().Add(10 * time.Second)
	for bgRows.Load() < rowsPerReq && bgErr.Load() == nil && time.Now().Before(warmDeadline) {
		time.Sleep(time.Millisecond)
	}

	beforeScrape, err := loadgen.ScrapeMetrics(context.Background(), client, url)
	if err != nil {
		close(stop)
		wg.Wait()
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

	// The precise starvation bound is asserted on the histogram operators
	// actually scrape: the router-merged per-model×class queue-wait
	// exposition, windowed to the loaded probe run. The probes' own
	// client-side tally only annotates the failure message.
	wantWait := map[string]string{"model": model, "class": "interactive"}
	wa, okA := obs.ParseHistogram(afterScrape, "radixrouter_model_queue_wait_seconds", wantWait)
	wb, okB := obs.ParseHistogram(beforeScrape, "radixrouter_model_queue_wait_seconds", wantWait)
	if !okA {
		return q, fmt.Errorf("qos: merged queue-wait histogram for %v missing from router /metrics", wantWait)
	}
	win := wa
	if okB {
		win = wa.Sub(wb)
	}
	if win.Count == 0 {
		return q, fmt.Errorf("qos: merged queue-wait histogram for %v empty over the loaded probe window", wantWait)
	}
	waitP99 := time.Duration(win.Quantile(0.99) * float64(time.Second))
	if waitBound := 25 * time.Millisecond; waitP99 > waitBound {
		clientWaitP99 := loadgen.Percentile(loadedWait, 99)
		return q, fmt.Errorf("qos: interactive queue-wait p99 %v (exported, %d samples; client-side %v) under routed background flood exceeds %v: starved in the scheduler",
			waitP99.Round(time.Microsecond), win.Count, clientWaitP99.Round(time.Microsecond), waitBound)
	}
	bound := 5 * p99u
	if floor := 100 * time.Millisecond; bound < floor {
		bound = floor
	}
	if p99l > bound {
		return q, fmt.Errorf("qos: interactive p99 %v under routed background flood exceeds bound %v (5× unloaded %v): starved",
			p99l.Round(time.Microsecond), bound, p99u.Round(time.Microsecond))
	}
	if bgDuring == 0 {
		return q, fmt.Errorf("qos: background completed no routed rows during the %v probe window: background starved", loadedElapsed.Round(time.Millisecond))
	}
	q = clusterBenchQoS{
		UnloadedP99Ms:         float64(p99u) / float64(time.Millisecond),
		LoadedP99Ms:           float64(p99l) / float64(time.Millisecond),
		P99Bound:              float64(bound) / float64(time.Millisecond),
		QueueWaitP99Ms:        float64(waitP99) / float64(time.Millisecond),
		InteractiveRowsPerSec: float64(probes) / loadedElapsed.Seconds(),
		BackgroundRowsPerSec:  float64(bgDuring) / loadedElapsed.Seconds(),
		BackgroundRows:        int(bgDuring),
	}
	log.Printf("qos: routed interactive p99 %.2fms unloaded → %.2fms under background flood (bound %.2fms, queue-wait p99 %.3fms); interactive %.0f rows/s, background %.0f rows/s (%d rows, no starvation)",
		q.UnloadedP99Ms, q.LoadedP99Ms, q.P99Bound, q.QueueWaitP99Ms, q.InteractiveRowsPerSec, q.BackgroundRowsPerSec, q.BackgroundRows)
	return q, nil
}

// runControlPlanePhase drives the fleet control plane end to end through
// the router: POST /v1/models registers a model on its ring-intended
// replicas, routed inference against it is bit-identical to direct
// Engine.Infer, PUT /v1/models/{name} hot-reloads every replica under
// concurrent routed load with zero failed requests, and DELETE removes it
// fleet-wide (after which the router answers 404).
func runControlPlanePhase(client *http.Client, url string, rt *cluster.Router, regs map[string]*serve.Registry, cfg core.Config, expected [][]float64, in *sparse.Dense) (clusterBenchHotReload, error) {
	var hr clusterBenchHotReload
	const model = "live"
	cfgJSON, err := graphio.MarshalConfig(cfg)
	if err != nil {
		return hr, err
	}
	regBody, err := json.Marshal(serve.RegisterRequest{Name: model, Config: cfgJSON, Engines: 1})
	if err != nil {
		return hr, err
	}
	status, body, err := cliutil.DoJSON(context.Background(), client, http.MethodPost, url+"/v1/models", regBody)
	if err != nil || status != http.StatusCreated {
		return hr, fmt.Errorf("control plane: register: status %d err %v (%s)", status, err, body)
	}
	owners := rt.Placement(model)
	for id, reg := range regs {
		_, has := reg.Model(model)
		if has != slices.Contains(owners, id) {
			return hr, fmt.Errorf("control plane: backend %s hosts=%v, want placement %v", id, has, owners)
		}
	}
	log.Printf("control plane: registered %q on its %d ring owners %v", model, len(owners), owners)

	// Bit-identity through the router, answered only by intended owners.
	rows := in.Rows()
	for r := 0; r < rows; r++ {
		status, by, resp, err := postInfer(client, url, serve.InferRequest{Model: model, Inputs: [][]float64{in.RowSlice(r)}})
		if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
			return hr, fmt.Errorf("control plane: row %d: status %d err %v", r, status, err)
		}
		if !slices.Contains(owners, by) {
			return hr, fmt.Errorf("control plane: row %d answered by %s, not an owner %v", r, by, owners)
		}
		for c, v := range resp.Outputs[0] {
			if v != expected[r][c] {
				return hr, fmt.Errorf("control plane: row %d col %d: runtime registration diverged (%v != %v)", r, c, v, expected[r][c])
			}
		}
	}
	log.Printf("control plane: %d routed rows bit-identical to direct Engine.Infer", rows)

	// Hot-reload every replica under concurrent routed load.
	const (
		reloads     = 2
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
				status, _, resp, err := postInfer(client, url, serve.InferRequest{Model: model, Inputs: [][]float64{in.RowSlice(r)}})
				if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("row %d: status %d err %v", r, status, err))
					return
				}
				if resp.Outputs[0][0] != expected[r][0] {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("row %d diverged mid-reload", r))
					return
				}
				completed.Add(1)
			}
		}(w)
	}
	waitRows := func(target int64) {
		deadline := time.Now().Add(15 * time.Second)
		for completed.Load() < target && failed.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < reloads; i++ {
		waitRows(int64((i + 1) * 16))
		status, body, err := cliutil.DoJSON(context.Background(), client, http.MethodPut, url+"/v1/models/"+model, regBody)
		if err != nil || status != http.StatusOK {
			close(stop)
			wg.Wait()
			return hr, fmt.Errorf("control plane: fleet reload %d: status %d err %v (%s)", i, status, err, body)
		}
	}
	waitRows(int64((reloads + 1) * 16))
	close(stop)
	wg.Wait()
	hr = clusterBenchHotReload{
		Replicas: len(owners),
		Reloads:  reloads,
		Requests: int(completed.Load() + failed.Load()),
		Failed:   int(failed.Load()),
	}
	if failed.Load() > 0 {
		return hr, fmt.Errorf("control plane: %d of %d routed requests failed across %d fleet reloads (first: %v)",
			failed.Load(), hr.Requests, reloads, firstErr.Load())
	}
	for _, id := range owners {
		m, ok := regs[id].Model(model)
		if !ok || m.Generation() != 1+reloads {
			return hr, fmt.Errorf("control plane: backend %s generation after fleet reload: want %d", id, 1+reloads)
		}
	}
	log.Printf("control plane: %d fleet-wide reloads × %d replicas raced %d routed requests, zero failures", reloads, len(owners), hr.Requests)

	// Unregister fleet-wide; the router must then 404.
	status, body, err = cliutil.DoJSON(context.Background(), client, http.MethodDelete, url+"/v1/models/"+model, nil)
	if err != nil || status != http.StatusOK {
		return hr, fmt.Errorf("control plane: unregister: status %d err %v (%s)", status, err, body)
	}
	status, _, _, err = postInfer(client, url, serve.InferRequest{Model: model, Inputs: [][]float64{in.RowSlice(0)}})
	if err != nil || status != http.StatusNotFound {
		return hr, fmt.Errorf("control plane: infer after unregister: status %d err %v, want 404", status, err)
	}
	log.Printf("control plane: unregistered fleet-wide; routed inference now 404")
	return hr, nil
}
