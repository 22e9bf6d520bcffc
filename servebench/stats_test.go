package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n    int
		want float64 // 0 means refused
	}{
		{50, 19, 0},
		{50, 20, 10},
		{99, 999, 0},
		{99, 1000, 990},
		{99, 2000, 1980},
		{50, 0, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want a refusal", tc.q, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.q, tc.n, got, err, tc.want)
		}
	}
}

func TestUnionLength(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	ivs := []interval{{at(1), at(3)}, {at(2), at(5)}, {at(7), at(8)}, {at(9), at(20)}}
	if got := unionLength(ivs, at(0), at(10)); got != 6*time.Second {
		t.Fatalf("union = %s, want 6s", got)
	}
}
