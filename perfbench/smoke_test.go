package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeOpts runs a workload at a tiny size: a 2-layer offline model and a
// window of one second (a fifth of it per traced phase).
func smokeOpts(name string, trace bool) options {
	return options{workload: name, seed: 3, dur: time.Second, trace: trace, tiny: true}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var out bytes.Buffer
			res, err := run(context.Background(), w, smokeOpts(w.name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				if !strings.Contains(out.String(), "\n"+d.name+" ") {
					t.Errorf("%s trace=%v: %s not printed by name", w.name, trace, d.name)
				}
			}
		}
	}
}

// A corrupted answer must fail the run: the gate covers the first answer.
func TestCorruptedOutputIsCaught(t *testing.T) {
	for _, w := range workloads {
		opts := smokeOpts(w.name, false)
		opts.corrupt = true
		res, err := run(context.Background(), w, opts, new(bytes.Buffer))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: corrupted answer passed: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
	}
}

// BENCHMARK.json must describe what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, got, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(spec.EndToEnd), len(endToEnd), len(spec.PerLayer), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := spec.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := spec.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, g, d)
		}
		if d.moves == "" {
			t.Errorf("per-layer %s names no end-to-end metric it moves", d.name)
		}
	}
}
