package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramExactAggregates(t *testing.T) {
	h := NewHistogram()
	samples := []time.Duration{
		0, time.Nanosecond, 3 * time.Microsecond, time.Millisecond,
		7 * time.Millisecond, 250 * time.Millisecond, 3 * time.Second,
	}
	var sum time.Duration
	for _, d := range samples {
		h.Record(d)
		sum += d
	}
	if got := h.Count(); got != uint64(len(samples)) {
		t.Fatalf("Count = %d, want %d", got, len(samples))
	}
	if got := h.Sum(); got != sum {
		t.Fatalf("Sum = %v, want %v", got, sum)
	}
	if got := h.Max(); got != 3*time.Second {
		t.Fatalf("Max = %v, want %v", got, 3*time.Second)
	}
	if got := h.Mean(); got != sum/time.Duration(len(samples)) {
		t.Fatalf("Mean = %v, want %v", got, sum/time.Duration(len(samples)))
	}
}

// Quantile must never underestimate (it reports the holding bucket's
// upper bound) and never exceed the true value by more than 2×.
func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		true time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.90, 900 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
		{1.00, 1000 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		if got < tc.true {
			t.Errorf("Quantile(%v) = %v underestimates true %v", tc.q, got, tc.true)
		}
		if got > 2*tc.true {
			t.Errorf("Quantile(%v) = %v more than 2× true %v", tc.q, got, tc.true)
		}
	}
	if got := h.Quantile(1.0); got != h.Max() {
		t.Errorf("Quantile(1.0) = %v, want exact max %v", got, h.Max())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Record(42 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, want 42ms (clamped by max)", q, got)
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Second) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram reads must be zero")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot must be empty")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("Count = %d, want %d", got, goroutines*per)
	}
	if got := h.Sum(); got != goroutines*per*time.Millisecond {
		t.Fatalf("Sum = %v, want %v", got, goroutines*per*time.Millisecond)
	}
}

func TestRegistryGetOrCreateAndGauges(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("space:write")
	h2 := r.Histogram("space:write")
	if h1 != h2 {
		t.Fatal("Histogram must rendezvous on the name")
	}
	h1.Record(5 * time.Millisecond)
	var n int64 = 7
	r.RegisterGauge("master:tasks_pending", func() int64 { return n })
	if v, ok := r.Gauge("master:tasks_pending"); !ok || v != 7 {
		t.Fatalf("Gauge = %d,%v want 7,true", v, ok)
	}
	n = 9
	if g := r.Gauges(); g["master:tasks_pending"] != 9 {
		t.Fatalf("Gauges = %v, want live value 9", g)
	}
	sum := r.Summary()
	if len(sum) != 1 || sum[0].Stage != "space:write" || sum[0].Count != 1 {
		t.Fatalf("Summary = %+v, want one space:write row", sum)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Histogram("x").Record(time.Second)
	r.RegisterGauge("g", func() int64 { return 1 })
	if _, ok := r.Gauge("g"); ok {
		t.Fatal("nil registry must report no gauges")
	}
	if r.Summary() != nil || r.HistogramNames() != nil {
		t.Fatal("nil registry reads must be empty")
	}
}
