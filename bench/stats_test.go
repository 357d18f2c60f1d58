package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("got %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Fatalf("single value: got %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 {
		t.Fatalf("empty: got %v %v %v", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.125, 15}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestSupportedTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, // plenty: the wanted tail stands
		{1000, 0.99},   // exactly ten beyond p99
		{500, 0.98},    // ten of 500 are beyond p98
		{100, 0.90},
		{15, 0.5}, // never below the median
		{0, 0.5},
	} {
		if got := supportedTail(c.n, 0.99); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	loose := func(v float64) summary { return summary{Value: v, Q1: v * 0.8, Q3: v * 1.2} }
	for _, c := range []struct {
		name   string
		a, b   summary
		better string
		want   string
	}{
		{"same", tight(100), tight(101), "lower", "ok"},
		{"slower beyond bound", tight(100), tight(120), "lower", "REGRESSION"},
		{"faster", tight(100), tight(50), "lower", "ok"},
		{"throughput fell", tight(100), tight(80), "higher", "REGRESSION"},
		{"throughput rose", tight(100), tight(130), "higher", "ok"},
		{"noise wider than bound", loose(100), loose(105), "lower", "unresolved"},
		{"worse within the noise", loose(100), loose(125), "lower", "unresolved"},
		{"worse beyond the noise", loose(100), loose(300), "lower", "REGRESSION"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}
