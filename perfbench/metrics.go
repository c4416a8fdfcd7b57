package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (the smoke test holds the two in step); the bound of
// an end-to-end metric is the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
	// moves names the end-to-end metric, and the workload, that a change in
	// this per-layer metric is expected to move.
	moves string
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one: on offline-gc1024 a "request" is one
// Engine.Infer call on the 64-row batch. Failures are not a metric (the
// figure is 0 at a correct commit) but the result's attempted/failed counts.
// The timing bounds are wide because the speed of a shared two-core host
// drifts by up to a fifth between runs minutes apart. Tail latencies are
// per-layer figures (loadgen.latency_*): on that host they follow the
// hypervisor's stolen time more than the program.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rows_per_s", unit: "rows/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.1},
}

// perLayer comes from the traced run's ladder: the same seeded inputs pushed
// through the engine, Model.Do, direct HTTP and the router, each rung timed
// from outside through the layer's public entry point.
var perLayer = []metricDef{
	{name: "core.build_s", unit: "s", better: "lower", moves: "setup_s, mostly on offline-gc1024"},
	{name: "sparse.layer_gedges_per_s_min", unit: "Gedges/s", better: "higher", moves: "rows_per_s on offline-gc1024"},
	{name: "sparse.layer_gedges_per_s_median", unit: "Gedges/s", better: "higher", moves: "rows_per_s on offline-gc1024"},
	{name: "infer.batch_ms_p50", unit: "ms", better: "lower", moves: "rows_per_s on offline-gc1024"},
	{name: "infer.gedges_per_s", unit: "Gedges/s", better: "higher", moves: "rows_per_s on offline-gc1024"},
	{name: "infer.alloc_bytes_per_batch", unit: "B", better: "lower", moves: "rows_per_s on offline-gc1024; must stay 0"},
	{name: "serve.queue_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on interactive-w64"},
	{name: "serve.queue_ms_p99", unit: "ms", better: "lower", moves: "latency_p99_ms on interactive-w64"},
	{name: "serve.assemble_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on interactive-w64 (the batcher timer floor)"},
	{name: "serve.assemble_ms_p99", unit: "ms", better: "lower", moves: "latency_p99_ms on interactive-w64"},
	{name: "serve.lease_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on fleet-bulk-w512"},
	{name: "serve.execute_ms_p50", unit: "ms", better: "lower", moves: "rows_per_s on fleet-bulk-w512"},
	{name: "serve.deliver_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on fleet-bulk-w512"},
	{name: "serve.mean_batch_rows", unit: "rows", better: "higher", moves: "rows_per_s on fleet-bulk-w512, latency_p50_ms on interactive-w64"},
	{name: "serve.do_rows_per_s", unit: "rows/s", better: "higher", moves: "rows_per_s on fleet-bulk-w512"},
	{name: "serve.rejected_frac", unit: "frac", better: "lower", moves: "failed count on every workload"},
	{name: "serve.http.self_ms_p50", unit: "ms", better: "lower", moves: "rows_per_s and latency_p50_ms on fleet-bulk-w512, latency_p50_ms on interactive-w64"},
	{name: "serve.http.admission_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on fleet-bulk-w512 and interactive-w64"},
	{name: "serve.http.alloc_bytes_per_row", unit: "B", better: "lower", moves: "rows_per_s on fleet-bulk-w512"},
	{name: "cluster.self_ms_p50", unit: "ms", better: "lower", moves: "rows_per_s and latency_p50_ms on fleet-bulk-w512; no change elsewhere"},
	{name: "cluster.route_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on fleet-bulk-w512"},
	{name: "cluster.attempt_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on fleet-bulk-w512"},
	{name: "cluster.failover_frac", unit: "frac", better: "lower", moves: "failed count on fleet-bulk-w512"},
	{name: "cluster.alloc_bytes_per_row", unit: "B", better: "lower", moves: "rows_per_s on fleet-bulk-w512"},
	{name: "loadgen.encode_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on fleet-bulk-w512"},
	{name: "loadgen.decode_ms_p50", unit: "ms", better: "lower", moves: "latency_p50_ms on fleet-bulk-w512"},
	{name: "loadgen.latency_p90_ms", unit: "ms", better: "lower", moves: "nothing alone: the tail of the workload's own path, client-observed from when each request was due"},
	{name: "loadgen.latency_p99_ms", unit: "ms", better: "lower", moves: "nothing alone: the tail of the workload's own path, client-observed from when each request was due"},
	{name: "loadgen.lag_p50_ms", unit: "ms", better: "lower", moves: "nothing: shows whether interactive-w64 measures the program or the generator"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower", moves: "nothing: shows whether interactive-w64 measures the program or the generator"},
	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower", moves: "rows_per_s on fleet-bulk-w512"},
	{name: "trace_overhead_frac", unit: "frac", better: "lower", moves: "nothing: the traced rung on the workload's own path against an untraced pass — rows_per_s on fleet-bulk-w512, median latency on the other two"},
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, or 0 for
// no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sample is one latency in milliseconds, taken at offset at into its phase.
type sample struct {
	at time.Duration
	ms float64
}

// Interference from outside the program comes in bursts on a shared
// two-core host. Figures are therefore taken per time slice of a phase and
// the median over slices reported: a burst moves a few slices, not the
// figure, while a change in the program moves every slice.

// rateSlice is about how many requests a slice holds when counting
// throughput, so that one request more or less moves a slice by 1%.
const rateSlice = 100

// numSlices is how many time slices n samples are cut into when each
// should hold about per of them.
func numSlices(n, per int) int { return max(1, n/per) }

// sliceOf returns which of k consecutive slices of [0, dur) holds t; the
// last slice also takes anything after dur.
func sliceOf(t, dur time.Duration, k int) int {
	return min(max(int(int64(t)*int64(k)/int64(dur)), 0), k-1)
}

// sliceQuantile cuts the phase [0, dur) into time slices just large enough
// that each slice's q-quantile has ten samples beyond it (20 samples for
// the median, 100 for p90, 1000 for p99), takes that quantile in every
// slice, and returns the median over slices.
func sliceQuantile(ss []sample, dur time.Duration, q float64) float64 {
	k := numSlices(len(ss), int(math.Ceil(10/(1-q))))
	per := make([][]float64, k)
	for _, s := range ss {
		i := sliceOf(s.at, dur, k)
		per[i] = append(per[i], s.ms)
	}
	var qs []float64
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
