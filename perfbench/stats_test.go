package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 2, 9}, 2},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no data is not NaN")
	}
}

// The expected cut points are what Python 3 prints for
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.5, 0.25, 4, 1, 2, 8, 16}, [3]float64{0.5, 2, 8}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if !near(got[i], tc.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	q := quartiles([]float64{7})
	if !math.IsNaN(q[0]) {
		t.Errorf("quartiles of one value = %v, want NaNs", q)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	v, p, ok := tail(xs)
	if !ok || v != 90 || p != 90 {
		t.Fatalf("tail(1..100) = %v at p%v (ok=%v), want 90 at p90", v, p, ok)
	}
	// Exactly 11 samples: the smallest still has ten beyond it.
	v, p, ok = tail(xs[:11])
	if !ok || v != 1 || !near(p, 100.0/11) {
		t.Fatalf("tail(1..11) = %v at p%v (ok=%v), want 1 at p%v", v, p, ok, 100.0/11)
	}
	// Ten samples admit no percentile with ten beyond it.
	v, p, ok = tail(xs[:10])
	if ok || v != 10 || p != 100 {
		t.Fatalf("tail(1..10) = %v at p%v (ok=%v), want max 10 at p100 and !ok", v, p, ok)
	}
}

func TestTailCountsTiesStrictly(t *testing.T) {
	// Twenty samples whose top eleven tie: no value among the ties has ten
	// samples strictly beyond it, so the tail steps down to the last value
	// below the tie, which has eleven beyond it.
	xs := make([]float64, 20)
	for i := range xs {
		if i < 9 {
			xs[i] = float64(i)
		} else {
			xs[i] = 50
		}
	}
	v, p, ok := tail(xs)
	if !ok || v != 8 || p != 45 {
		t.Fatalf("tail = %v at p%v (ok=%v), want 8 at p45", v, p, ok)
	}
	// All equal: nothing is ever strictly beyond.
	same := []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	if v, _, ok := tail(same); ok || v != 3 {
		t.Fatalf("tail(all equal) = %v (ok=%v), want max and !ok", v, ok)
	}
}
