package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/radix"
)

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestHistogramExposition drives known rows and asserts the histogram
// families on /metrics parse back with exact counts and the shared log2
// bucket ladder — the contract the router's bucket-wise merge and the
// selftests' p99 assertions both depend on.
func TestHistogramExposition(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)

	row := make([]float64, m.InputWidth())
	row[1] = 1
	const rows = 5
	for i := 0; i < rows; i++ {
		if _, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, Class: ClassInteractive}); err != nil {
			t.Fatal(err)
		}
	}
	text := scrapeMetrics(t, ts.URL)

	lat, ok := obs.ParseHistogram(text, "radixserve_request_latency_seconds", map[string]string{"model": "m"})
	if !ok {
		t.Fatalf("latency histogram missing from exposition:\n%s", text)
	}
	if lat.Count != rows {
		t.Fatalf("latency count = %d, want %d", lat.Count, rows)
	}
	// Exact ladder: first emitted bound is 2^12ns, last is 2^34ns, and the
	// cumulative counts are monotone ending at Count.
	if len(lat.Les) == 0 || lat.Les[0] != 4.096e-06 {
		t.Fatalf("first le = %v, want 4.096e-06", lat.Les)
	}
	if last := lat.Les[len(lat.Les)-1]; last != float64(int64(1)<<34)/1e9 {
		t.Fatalf("last le = %g, want %g", last, float64(int64(1)<<34)/1e9)
	}
	prev := uint64(0)
	for i, c := range lat.Cum {
		if c < prev {
			t.Fatalf("non-monotone bucket counts at %d", i)
		}
		prev = c
	}
	if prev != lat.Count {
		t.Fatalf("final cumulative %d != count %d", prev, lat.Count)
	}
	if p99 := lat.Quantile(0.99); p99 <= 0 || p99 > 10 {
		t.Fatalf("latency p99 = %gs, implausible", p99)
	}

	wait, ok := obs.ParseHistogram(text, "radixserve_queue_wait_seconds",
		map[string]string{"model": "m", "class": "interactive"})
	if !ok || wait.Count != rows {
		t.Fatalf("interactive queue-wait histogram: ok=%v count=%d, want %d", ok, wait.Count, rows)
	}
	if idle, ok := obs.ParseHistogram(text, "radixserve_queue_wait_seconds",
		map[string]string{"model": "m", "class": "batch"}); !ok || idle.Count != 0 {
		t.Fatalf("idle class histogram: ok=%v count=%d, want present and 0", ok, idle.Count)
	}
	if ex, ok := obs.ParseHistogram(text, "radixserve_execute_seconds", map[string]string{"model": "m"}); !ok || ex.Count == 0 {
		t.Fatalf("execute histogram: ok=%v count=%d, want > 0", ok, ex.Count)
	}
}

// TestWindowedMaxResetsOnScrape asserts the maxwindow gauge forgets an
// old peak after scrapes while the all-time max keeps it — the
// MetricsSnapshot staleness fix.
func TestWindowedMaxResetsOnScrape(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)
	row := make([]float64, m.InputWidth())
	if _, err := doRow(m, row); err != nil {
		t.Fatal(err)
	}
	series := `radixserve_request_latency_seconds_maxwindow{model="m"}`
	p := parsePrometheus(t, scrapeMetrics(t, ts.URL))
	if v := p.value(t, series); v <= 0 {
		t.Fatalf("maxwindow = %g right after traffic, want > 0", v)
	}
	// Each scrape rotates the window; after two idle scrapes the peak has
	// aged out of both retained windows.
	scrapeMetrics(t, ts.URL)
	p = parsePrometheus(t, scrapeMetrics(t, ts.URL))
	if v := p.value(t, series); v != 0 {
		t.Fatalf("maxwindow = %g after idle scrapes, want 0", v)
	}
	if v := p.value(t, `radixserve_request_latency_seconds_max{model="m"}`); v <= 0 {
		t.Fatalf("all-time max lost: %g", v)
	}
	snap := m.Metrics().Snapshot()
	if snap.MaxLatency <= 0 {
		t.Fatalf("snapshot all-time max = %v", snap.MaxLatency)
	}
}

// TestRetryAfterFromWaitHistogram is the regression test for the 429 hint:
// once the class has enough samples, the hint must come from the queue-wait
// p90 and stay within a deadline-scale budget rather than ballooning to the
// old depth-based estimate, and it must respect the [1,30]s clamp.
func TestRetryAfterFromWaitHistogram(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, _ := newTestServer(t, pol, 1)
	id, err := m.qos.id(ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	cm := m.met.class(id)

	// Below the sample floor the cold fallback answers (≥ 1s, clamped).
	if got := m.RetryAfterSeconds(ClassInteractive); got < 1 || got > 30 {
		t.Fatalf("cold hint = %d, want within [1,30]", got)
	}
	// Waits all well under a 2s deadline budget → hint must be the 1s
	// floor, comfortably inside the budget.
	for i := 0; i < 100; i++ {
		cm.WaitHist.Observe(int64(5 * time.Millisecond))
	}
	if got := m.RetryAfterSeconds(ClassInteractive); got != 1 {
		t.Fatalf("hint after 5ms waits = %ds, want 1 (within deadline budget)", got)
	}
	// Pathological waits clamp at 30s.
	for i := 0; i < 1000; i++ {
		cm.WaitHist.Observe(int64(120 * time.Second))
	}
	if got := m.RetryAfterSeconds(ClassInteractive); got != 30 {
		t.Fatalf("hint after 120s waits = %ds, want 30 (clamp)", got)
	}
}

// TestResponseTraceAndSpans asserts Do returns a trace ID and the five
// scheduler spans with plausible timings.
func TestResponseTraceAndSpans(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, _ := newTestServer(t, pol, 1)
	row := make([]float64, m.InputWidth())
	resp, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, TraceID: "cafe0000"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "cafe0000" {
		t.Fatalf("trace id = %q, want echo of caller's", resp.TraceID)
	}
	want := []string{"queue", "assemble", "lease", "execute", "deliver"}
	if len(resp.Spans) != len(want) {
		t.Fatalf("spans = %d, want %d: %+v", len(resp.Spans), len(want), resp.Spans)
	}
	var exec float64
	for i, s := range resp.Spans {
		if s.Name != want[i] {
			t.Fatalf("span %d = %q, want %q", i, s.Name, want[i])
		}
		if s.DurMs < 0 {
			t.Fatalf("span %q negative: %v", s.Name, s.DurMs)
		}
		if s.Name == "execute" {
			exec = s.DurMs
		}
	}
	if exec <= 0 {
		t.Fatalf("execute span = %v, want > 0", exec)
	}
	// Without a caller ID, Do assigns one.
	resp, err = m.Do(context.Background(), &Request{Rows: [][]float64{row}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 32 {
		t.Fatalf("generated trace id = %q", resp.TraceID)
	}
}

// TestTraceRetainedBeforeResponse is the ordering contract a client
// reading /debug/traces relies on: once a response has arrived, its trace
// is already in the ring. The model is wide enough that a success body
// overflows the server's write buffers, so the whole JSON value reaches
// the client while the handler is still running; every fourth round takes
// an error path.
func TestTraceRetainedBeforeResponse(t *testing.T) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Policy{})
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(reg, "127.0.0.1:0", ServerOptions{TraceDepth: 16})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); reg.Close() })
	in, err := dataset.SparseBatch(1, m.InputWidth(), 64, 29)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		model := "m"
		if i%4 == 3 {
			model = "absent" // 404 path
		}
		id := fmt.Sprintf("%032x", i+1)
		body, _ := json.Marshal(InferRequest{Model: model, Inputs: [][]float64{in.RowSlice(0)}})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/infer", bytes.NewReader(body))
		req.Header.Set(obs.HeaderTraceID, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Decode rather than drain: a client holding the whole JSON value
		// has its answer and may look the trace up before the handler
		// returns and terminates the chunked body.
		var ir InferResponse
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("round %d: decode: %v", i, err)
		}
		tr, err := http.Get(ts.URL + "/debug/traces?trace=" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, tr.Body)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK {
			t.Fatalf("round %d: trace %s not retained once its %d response arrived (lookup status %d)",
				i, id, resp.StatusCode, tr.StatusCode)
		}
	}
}

// TestHTTPTraceEndToEnd exercises the trace surface over HTTP: the
// response and header echo a caller-supplied trace ID, the response spans
// include admission plus the five scheduler stages, the request shows up
// in /debug/traces, and a slow-threshold server logs the breakdown.
func TestHTTPTraceEndToEnd(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	cfg := testConfig(t)
	reg := NewRegistry(pol)
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	srv := NewServerOpts(reg, "127.0.0.1:0", ServerOptions{
		Pprof:       true,
		SlowRequest: time.Nanosecond, // everything is slow: force the log path
		TraceDepth:  16,
		Logger:      slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); reg.Close() })

	row := make([]float64, m.InputWidth())
	body, _ := json.Marshal(InferRequest{Model: "m", Inputs: [][]float64{row}})
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/infer", bytes.NewReader(body))
	hreq.Header.Set(obs.HeaderTraceID, "feedface00000000feedface00000000")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hresp.StatusCode, raw)
	}
	if got := hresp.Header.Get(obs.HeaderTraceID); got != "feedface00000000feedface00000000" {
		t.Fatalf("trace header = %q", got)
	}
	var ir InferResponse
	if err := json.Unmarshal(raw, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.TraceID != "feedface00000000feedface00000000" {
		t.Fatalf("body trace id = %q", ir.TraceID)
	}
	wantSpans := []string{"admission", "queue", "assemble", "lease", "execute", "deliver"}
	if len(ir.Spans) != len(wantSpans) {
		t.Fatalf("spans = %+v, want %v", ir.Spans, wantSpans)
	}
	for i, sp := range ir.Spans {
		if sp.Name != wantSpans[i] {
			t.Fatalf("span %d = %q, want %q", i, sp.Name, wantSpans[i])
		}
	}

	// The request is browsable in the ring.
	dresp, err := http.Get(ts.URL + "/debug/traces?n=4")
	if err != nil {
		t.Fatal(err)
	}
	draw, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	var view struct {
		Total   uint64       `json:"total"`
		Recent  []*obs.Trace `json:"recent"`
		Slowest []*obs.Trace `json:"slowest"`
	}
	if err := json.Unmarshal(draw, &view); err != nil {
		t.Fatalf("bad /debug/traces json: %v\n%s", err, draw)
	}
	if view.Total == 0 || len(view.Recent) == 0 {
		t.Fatalf("trace ring empty: %s", draw)
	}
	if view.Recent[0].ID != ir.TraceID || view.Recent[0].Status != http.StatusOK {
		t.Fatalf("ring head = %+v", view.Recent[0])
	}

	// Slow log fired with trace correlation.
	if logged := logBuf.String(); !strings.Contains(logged, "slow request") ||
		!strings.Contains(logged, ir.TraceID) || !strings.Contains(logged, "execute=") {
		t.Fatalf("slow log missing fields:\n%s", logged)
	}

	// pprof mounted (opt-in was set).
	presp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", presp.StatusCode)
	}

	// pprof NOT mounted on a default server.
	plain := NewServer(reg, "127.0.0.1:0")
	ts2 := httptest.NewServer(plain.Handler())
	defer ts2.Close()
	p2, err := http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	p2.Body.Close()
	if p2.StatusCode == http.StatusOK {
		t.Fatal("pprof exposed without opt-in")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent slog writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
