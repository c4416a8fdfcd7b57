package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// workload is one traffic mix. Each stresses a different layer, so a change
// that helps one and costs another shows.
type workload struct {
	name, why string
	config    func(tiny bool) (core.Config, error)
	// perturb adds seeded ±0.01 noise to every weight, avoiding the
	// all-equal weight special case of config-built engines.
	perturb  bool
	rows     int     // rows per request (offline: per Engine.Infer batch)
	inputs   int     // seeded input rows; requests cycle through them
	clients  int     // closed-loop callers, or open-loop connections
	rate     float64 // open-loop Poisson arrivals per second; 0 is closed loop
	backends int     // serve backends on the measured path; 0 is the engine alone
	routed   bool    // requests reach the backends through the cluster router
}

// Serving follows radixserve's defaults: two warm engines per model, the
// default batching policy, one batch in 16 profiled.
const (
	enginesPerModel = 2
	profileEvery    = 16
	modelName       = "bench"
	// setupReps is how many times a run sets the system up; setup_s is the
	// median.
	setupReps = 5
)

var workloads = []workload{
	{
		name: "offline-gc1024",
		why:  "Graph Challenge 1024x120 batch inference: kernel and engine do nearly all the work, serve, HTTP, JSON and router none",
		config: func(tiny bool) (core.Config, error) {
			if tiny {
				return core.GraphChallengeConfig(1024, 2)
			}
			return core.GraphChallengeConfig(1024, 120)
		},
		perturb: true, rows: 64, inputs: 64, clients: 1,
	},
	{
		name:   "fleet-bulk-w512",
		why:    "2 closed-loop clients send 64-row JSON requests via the router to 2 backends: wire codec and router dominate",
		config: radixConfig(8, 8, 8),
		rows:   64, inputs: 512, clients: 2, backends: 2, routed: true,
	},
	{
		name:   "interactive-w64",
		why:    "open-loop Poisson single-row requests at 300/s straight to one backend: the batcher's collection step dominates",
		config: radixConfig(4, 4, 4),
		rows:   1, inputs: 256, clients: 2, rate: 300, backends: 1,
	},
}

func radixConfig(radices ...int) func(bool) (core.Config, error) {
	return func(bool) (core.Config, error) {
		sys, err := radix.New(radices...)
		if err != nil {
			return core.Config{}, err
		}
		return core.NewConfig([]radix.System{sys}, nil)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench holds one run's seeded inputs, the per-row reference outputs every
// answer is checked against, and the running tally.
type bench struct {
	w        workload
	opts     options
	cfg      core.Config
	inputs   *sparse.Dense
	reqs     [][][]float64 // request i carries reqs[i%len(reqs)]
	want     [][]float64   // per-row reference outputs
	attempts atomic.Int64
	failures atomic.Int64
	wrong    atomic.Int64 // answers that were not bit-identical
	corrupt  atomic.Bool  // flip one bit of the next answer before checking it
}

func newBench(w workload, opts options) (*bench, error) {
	cfg, err := w.config(opts.tiny)
	if err != nil {
		return nil, fmt.Errorf("%s: config: %w", w.name, err)
	}
	width := cfg.LayerWidths()[0]
	inputs, err := dataset.SparseBatch(w.inputs, width, width/10, opts.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	b := &bench{w: w, opts: opts, cfg: cfg, inputs: inputs}
	b.corrupt.Store(opts.corrupt)
	for lo := 0; lo < w.inputs; lo += w.rows {
		req := make([][]float64, w.rows)
		for k := range req {
			req[k] = inputs.RowSlice(lo + k)
		}
		b.reqs = append(b.reqs, req)
	}
	// The reference is a separate engine from the same config, run one row
	// at a time, as the selftests do.
	ref, err := b.newEngine()
	if err != nil {
		return nil, err
	}
	for r := 0; r < w.inputs; r++ {
		row, err := sparse.DenseFromSlice(1, width, inputs.RowSlice(r))
		if err != nil {
			return nil, err
		}
		y, err := ref.Infer(row)
		if err != nil {
			return nil, fmt.Errorf("%s: reference row %d: %w", w.name, r, err)
		}
		b.want = append(b.want, append([]float64(nil), y.Data()...))
	}
	return b, nil
}

// newEngine builds the workload's engine on the automatic kernel choice.
func (b *bench) newEngine() (*infer.Engine, error) {
	e, err := infer.FromConfigKernel(b.cfg, infer.KernelAuto)
	if err != nil {
		return nil, fmt.Errorf("%s: engine: %w", b.w.name, err)
	}
	if b.w.perturb {
		e.PerturbWeights(0.01, b.opts.seed)
	}
	return e, nil
}

// firstRow is the index of request i's first input row.
func (b *bench) firstRow(i int64) int { return int(i%int64(len(b.reqs))) * b.w.rows }

// check compares an answer bit-for-bit with the reference rows starting at
// row first, and tallies the outcome. row(k) returns the answer's k-th row.
func (b *bench) check(first, n int, row func(k int) []float64) bool {
	b.attempts.Add(1)
	ok := true
	for k := 0; k < n && ok; k++ {
		got := row(k)
		if k == 0 && len(got) > 0 && b.corrupt.CompareAndSwap(true, false) {
			got[0] = flipBit(got[0])
		}
		ok = sameBits(got, b.want[first+k])
	}
	if !ok {
		b.failures.Add(1)
		b.wrong.Add(1)
	}
	return ok
}

func (b *bench) fail() { b.attempts.Add(1); b.failures.Add(1) }

// stack is the in-process serving tier: serve backends on loopback, with a
// cluster router in front when asked.
type stack struct {
	regs   []*serve.Registry
	models []*serve.Model
	srvs   []*serve.Server
	urls   []string // backend base URLs
	rt     *cluster.Router
	rtURL  string
}

func (b *bench) startStack(backends int, router bool) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	for range backends {
		reg := serve.NewRegistry(serve.Policy{})
		reg.SetProfileEvery(profileEvery)
		st.regs = append(st.regs, reg)
		m, err := reg.Register(modelName, b.cfg, enginesPerModel)
		if err != nil {
			return st, fmt.Errorf("register: %w", err)
		}
		if b.w.perturb {
			// Clones share the weight stack, so perturbing one leased
			// engine perturbs the model; no request is in flight yet.
			e := m.Lease()
			e.PerturbWeights(0.01, b.opts.seed)
			m.Release(e)
		}
		st.models = append(st.models, m)
		srv := serve.NewServer(reg, "127.0.0.1:0")
		addr, err := srv.Start()
		if err != nil {
			return st, fmt.Errorf("serve: %w", err)
		}
		st.srvs = append(st.srvs, srv)
		st.urls = append(st.urls, "http://"+addr)
	}
	if !router {
		return st, nil
	}
	var addrs []string
	for _, u := range st.urls {
		addrs = append(addrs, u[len("http://"):])
	}
	st.rt, err = cluster.NewRouter(cluster.RouterConfig{
		Addr: "127.0.0.1:0", Backends: addrs, Replicas: 2, SpreadReplicas: true,
	})
	if err != nil {
		return st, fmt.Errorf("router: %w", err)
	}
	addr, err := st.rt.Start()
	if err != nil {
		return st, fmt.Errorf("router: %w", err)
	}
	st.rtURL = "http://" + addr
	if n := st.rt.Set().HealthyCount(); n != backends {
		return st, fmt.Errorf("router: %d of %d backends healthy", n, backends)
	}
	return st, nil
}

func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if st.rt != nil {
		errs = append(errs, st.rt.Shutdown(ctx))
	}
	for _, s := range st.srvs {
		errs = append(errs, s.Shutdown(ctx))
	}
	for _, r := range st.regs {
		r.Close()
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
}

// newClient returns a client that holds at most one connection, so the
// number of clients bounds the connections the load generator opens.
func newClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = 1
	tr.MaxIdleConnsPerHost = 1
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}
