package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/radix"
)

// registerBodyKernel is registerBody plus an explicit kernel field.
func registerBodyKernel(t *testing.T, name string, cfg core.Config, engines int, kernel string) []byte {
	t.Helper()
	cfgJSON, err := graphio.MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(RegisterRequest{Name: name, Config: cfgJSON, Engines: engines, Kernel: kernel})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRegistryKernelSelection runs a CSC-pinned model and a radix model of
// the same config side by side in one registry and requires their served
// outputs to be bitwise identical — the fleet-level statement of the
// kernel bit-identity contract — then checks reload preserves a model's
// requested kernel unless the reload names a new one.
func TestRegistryKernelSelection(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: time.Millisecond})
	defer reg.Close()
	cfg := testConfig(t)

	oracle, err := reg.RegisterSpec("oracle", Spec{Config: cfg, Engines: 2, Kernel: "csc"})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := reg.RegisterSpec("fast", Spec{Config: cfg, Engines: 2, Kernel: "radix"})
	if err != nil {
		t.Fatal(err)
	}
	if got := oracle.Kernel(); got != infer.KernelCSC {
		t.Fatalf("oracle kernel = %v, want csc", got)
	}
	if got := fast.Kernel(); got != infer.KernelRadix {
		t.Fatalf("fast kernel = %v, want radix", got)
	}
	// Default registration resolves Auto to radix for a config-built model.
	auto, err := reg.Register("auto", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := auto.Kernel(); got != infer.KernelRadix {
		t.Fatalf("auto-registered kernel = %v, want radix", got)
	}

	in, err := dataset.SparseBatch(8, oracle.InputWidth(), 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, in.Rows())
	for r := range rows {
		rows[r] = in.RowSlice(r)
	}
	ctx := t.Context()
	cscResp, err := oracle.Do(ctx, &Request{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	radixResp, err := fast.Do(ctx, &Request{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	cscOut, radixOut := cscResp.Outputs, radixResp.Outputs
	want := referenceOutputs(t, cfg, in)
	for r := range want {
		for c := range want[r] {
			if cscOut[r][c] != want[r][c] {
				t.Fatalf("csc model diverged from oracle at row %d col %d", r, c)
			}
			if radixOut[r][c] != want[r][c] {
				t.Fatalf("radix model diverged from oracle at row %d col %d: got %v want %v",
					r, c, radixOut[r][c], want[r][c])
			}
		}
	}

	// A kernel-less reload keeps the requested kernel on both models.
	if _, err := reg.Reload("oracle", Spec{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if got := oracle.Kernel(); got != infer.KernelCSC {
		t.Fatalf("kernel after kernel-less reload = %v, want csc preserved", got)
	}
	if _, err := reg.Reload("fast", Spec{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if got := fast.Kernel(); got != infer.KernelRadix {
		t.Fatalf("kernel after kernel-less reload = %v, want radix preserved", got)
	}
	// An explicit kernel on reload switches, and sticks for later reloads.
	if _, err := reg.Reload("oracle", Spec{Config: cfg, Kernel: "radix"}); err != nil {
		t.Fatal(err)
	}
	if got := oracle.Kernel(); got != infer.KernelRadix {
		t.Fatalf("kernel after radix reload = %v, want radix", got)
	}
	if _, err := reg.Reload("oracle", Spec{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if got := oracle.Kernel(); got != infer.KernelRadix {
		t.Fatalf("kernel after follow-up reload = %v, want radix kept", got)
	}
	// The reloaded generation still serves bit-identically.
	resp2, err := oracle.Do(ctx, &Request{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	out2 := resp2.Outputs
	for r := range want {
		for c := range want[r] {
			if out2[r][c] != want[r][c] {
				t.Fatalf("post-reload radix outputs diverged at row %d col %d", r, c)
			}
		}
	}
}

// TestHTTPKernelField drives kernel selection over the wire: the register
// and list responses report the resolved kernel, an unknown kernel name is
// refused with 422 before any engine is built, and KernelRadix on a config
// the registry cannot prove radix-structured is a 422 too.
func TestHTTPKernelField(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: time.Millisecond})
	s := NewServer(reg, "127.0.0.1:0")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	cfg := testConfig(t)

	code, body := adminDo(t, http.MethodPost, ts.URL+"/v1/models", registerBodyKernel(t, "k", cfg, 1, "radix"))
	if code != http.StatusCreated {
		t.Fatalf("register kernel=radix: status %d: %s", code, body)
	}
	var info ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Kernel != "radix" {
		t.Fatalf("register info kernel = %q, want radix", info.Kernel)
	}

	if code, body = adminDo(t, http.MethodPost, ts.URL+"/v1/models", registerBodyKernel(t, "bad", cfg, 1, "simd")); code != http.StatusUnprocessableEntity {
		t.Fatalf("register unknown kernel: status %d: %s", code, body)
	}
	if _, ok := reg.Model("bad"); ok {
		t.Fatal("model with unknown kernel was registered")
	}
	if code, body = adminDo(t, http.MethodPut, ts.URL+"/v1/models/k", registerBodyKernel(t, "", cfg, 0, "simd")); code != http.StatusUnprocessableEntity {
		t.Fatalf("reload unknown kernel: status %d: %s", code, body)
	}

	// A Kronecker-lifted config compiles stride plans too (it just runs the
	// natural-order radix kernels instead of the Stockham chain), so
	// demanding radix on it succeeds, and csc still opts out.
	lifted, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RegisterSpec("lift-csc", Spec{Config: lifted, Engines: 1, Kernel: "csc"}); err != nil {
		t.Fatalf("csc on lifted config: %v", err)
	}
	if code, body = adminDo(t, http.MethodPost, ts.URL+"/v1/models", registerBodyKernel(t, "lift", lifted, 1, "radix")); code != http.StatusCreated {
		t.Fatalf("radix on lifted config: status %d: %s", code, body)
	}

	// GET /v1/models reports each model's resolved kernel.
	code, body = adminDo(t, http.MethodGet, ts.URL+"/v1/models", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list map[string][]ModelInfo
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	kernels := map[string]string{}
	for _, mi := range list["models"] {
		kernels[mi.Name] = mi.Kernel
	}
	if kernels["k"] != "radix" || kernels["lift-csc"] != "csc" {
		t.Fatalf("listed kernels = %v", kernels)
	}
}
