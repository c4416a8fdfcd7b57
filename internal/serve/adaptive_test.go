package serve

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/dataset"
)

// TestCollectWindowClampAndMax pins the adaptive window's arithmetic:
// twice the worst per-class queue-delay EWMA, clamped to
// [fastPathGrace, MaxLatency].
func TestCollectWindowClampAndMax(t *testing.T) {
	reg, err := NewRegistryQoS(Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond}, QoSConfig{
		Weights: map[string]int{"interactive": 3, "background": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.bat
	set := func(ewma ...time.Duration) {
		for c := range b.classWait {
			b.classWait[c].Store(0)
		}
		for c, d := range ewma {
			b.classWait[c].Store(d.Nanoseconds())
		}
	}

	set() // idle: every class EWMA zero
	if got := b.collectWindow(); got != fastPathGrace {
		t.Fatalf("idle window = %v, want floor %v", got, fastPathGrace)
	}
	set(10 * time.Millisecond) // saturated: 2×10ms far above the budget
	if got := b.collectWindow(); got != b.pol.MaxLatency {
		t.Fatalf("saturated window = %v, want ceiling %v", got, b.pol.MaxLatency)
	}
	set(300 * time.Microsecond) // mid-band: tracks 2× the EWMA exactly
	if got, want := b.collectWindow(), 600*time.Microsecond; got != want {
		t.Fatalf("mid-band window = %v, want %v", got, want)
	}
	set(50*time.Microsecond, 400*time.Microsecond) // worst class governs
	if got, want := b.collectWindow(), 800*time.Microsecond; got != want {
		t.Fatalf("multi-class window = %v, want %v (worst class)", got, want)
	}
}

// TestQueueDelayEWMAConvergence drives the measurement path directly:
// sustained large queue delays open the window to the full MaxLatency
// within a handful of batches, and sustained near-zero delays decay it
// back to the fast-path floor. This is the saturation half of the
// adaptive-batching contract, deterministic because it feeds the same
// samples execute() would record under real queueing.
func TestQueueDelayEWMAConvergence(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.bat

	// Saturation: rows waiting ~MaxLatency each. The EWMA climbs past
	// MaxLatency/2 within a few samples and the window hits the ceiling.
	for i := 0; i < 32; i++ {
		b.noteQueueDelay(0, 2*time.Millisecond)
	}
	if got := b.collectWindow(); got != b.pol.MaxLatency {
		t.Fatalf("after sustained queueing: window = %v, want %v", got, b.pol.MaxLatency)
	}

	// Recovery: load drains, queue delays drop to zero. The 1/8 smoothing
	// forgets the saturated history within a few dozen samples.
	for i := 0; i < 64; i++ {
		b.noteQueueDelay(0, 0)
	}
	if got := b.collectWindow(); got != fastPathGrace {
		t.Fatalf("after drain: window = %v, want floor %v", got, fastPathGrace)
	}
}

// TestAdaptiveWindowLightLoadConverges is the end-to-end half: a batcher
// whose EWMA remembers heavy queueing is driven by a sequential
// single-row client (the light-load extreme), and the real execute()
// measurements pull the collection window back down to the fast-path
// floor — light load tunes MaxLatency down by itself.
func TestAdaptiveWindowLightLoadConverges(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.bat
	b.classWait[0].Store((5 * time.Millisecond).Nanoseconds()) // poisoned by past saturation
	if got := b.collectWindow(); got != b.pol.MaxLatency {
		t.Fatalf("precondition: window = %v, want ceiling %v", got, b.pol.MaxLatency)
	}

	in, err := dataset.SparseBatch(1, m.InputWidth(), 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if _, err := doRow(m, in.RowSlice(0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.collectWindow(); got != fastPathGrace {
		t.Fatalf("after sequential light load: window = %v, want floor %v (EWMA %v)",
			got, fastPathGrace, time.Duration(b.classWait[0].Load()))
	}
}

// TestCollectionWaitHonoursBudget measures the collection wait a request
// actually pays — its "assemble" span, dequeue to dispatch — against the
// window the collector computed. Sub-millisecond windows must be waited
// out neither short (the batch would give up company it was promised) nor
// long (a timer rounded up to the host's ~1ms floor). Medians over 50
// sequential requests keep the check deterministic on a shared host.
func TestCollectionWaitHonoursBudget(t *testing.T) {
	medianAssemble := func(t *testing.T, m *Model, before func()) time.Duration {
		t.Helper()
		in, err := dataset.SparseBatch(1, m.InputWidth(), 3, 23)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50
		waits := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			before()
			resp, err := m.Do(context.Background(), &Request{Rows: [][]float64{in.RowSlice(0)}})
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range resp.Spans {
				if sp.Name == "assemble" {
					waits = append(waits, time.Duration(sp.DurMs*float64(time.Millisecond)))
				}
			}
		}
		if len(waits) != n {
			t.Fatalf("%d assemble spans for %d requests", len(waits), n)
		}
		slices.Sort(waits)
		return waits[n/2]
	}
	register := func(t *testing.T) *Model {
		t.Helper()
		reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond, Workers: 1})
		t.Cleanup(reg.Close)
		m, err := reg.Register("m", testConfig(t), 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("fast path grace", func(t *testing.T) {
		m := register(t)
		got := medianAssemble(t, m, func() {})
		if got > 2*fastPathGrace {
			t.Fatalf("median assemble = %v, want ≤ %v (grace window %v)", got, 2*fastPathGrace, fastPathGrace)
		}
	})

	t.Run("adaptive window", func(t *testing.T) {
		m := register(t)
		b := m.bat
		// An announced-but-unsubmitted row makes company possible, so the
		// collector waits the full adaptive window; the EWMA is re-pinned
		// before every request because each execute folds in a sample.
		b.incoming.Add(1)
		defer b.incoming.Add(-1)
		const window = 600 * time.Microsecond
		pin := func() {
			for c := range b.classWait {
				b.classWait[c].Store((window / 2).Nanoseconds())
			}
		}
		pin()
		if got := b.collectWindow(); got != window {
			t.Fatalf("precondition: window = %v, want %v", got, window)
		}
		got := medianAssemble(t, m, pin)
		if got < window || got > window+2*fastPathGrace {
			t.Fatalf("median assemble = %v, want within [%v, %v]", got, window, window+2*fastPathGrace)
		}
	})
}
