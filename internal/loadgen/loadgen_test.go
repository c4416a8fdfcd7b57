package loadgen

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestPostEncodesDecodesAndReportsBackend(t *testing.T) {
	type req struct {
		Model string `json:"model"`
	}
	type resp struct {
		Echo string `json:"echo"`
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/infer" {
			http.NotFound(w, r)
			return
		}
		var in req
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil || in.Model == "" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set(headerBackend, "node-1")
		json.NewEncoder(w).Encode(resp{Echo: in.Model}) //nolint:errcheck // test server
	}))
	defer ts.Close()
	client := Client()

	status, backend, out, err := Post[resp](t.Context(), client, ts.URL, req{Model: "m"})
	if err != nil || status != http.StatusOK || backend != "node-1" || out.Echo != "m" {
		t.Fatalf("value body: status %d backend %q out %+v err %v", status, backend, out, err)
	}
	status, _, out, err = Post[resp](t.Context(), client, ts.URL, []byte(`{"model":"raw"}`))
	if err != nil || status != http.StatusOK || out.Echo != "raw" {
		t.Fatalf("byte body: status %d out %+v err %v", status, out, err)
	}
	status, _, out, err = Post[resp](t.Context(), client, ts.URL, []byte(`{}`))
	if err != nil || status != http.StatusBadRequest || out != (resp{}) {
		t.Fatalf("non-200: status %d out %+v err %v", status, out, err)
	}
}

func TestExemplarTraceIDs(t *testing.T) {
	scrape := `# TYPE lat histogram
lat_bucket{model="a",le="0.001"} 3 # {trace_id="0123456789abcdef0123456789abcdef"} 0.0004
lat_bucket{model="a",le="0.01"} 4
lat_bucket{model="b",le="0.001"} 1 # {trace_id="ffffffffffffffffffffffffffffffff"} 0.0002
lat_bucket{model="a",le="+Inf"} 5 # {span="x"} 1
`
	got := ExemplarTraceIDs(scrape, `lat_bucket{model="a"`)
	want := []string{"0123456789abcdef0123456789abcdef"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExemplarTraceIDs = %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	lat := []time.Duration{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		p    int
		want time.Duration
	}{{0, 1}, {50, 6}, {90, 10}, {99, 10}, {100, 10}} {
		if got := Percentile(lat, tc.p); got != tc.want {
			t.Errorf("Percentile(p%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if lat[0] != 5 {
		t.Fatal("Percentile sorted its input in place")
	}
}
