package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples, a median at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q < 100) of xs.
// It refuses, with an error naming the sample count, when fewer than
// minBeyond samples lie beyond the percentile's rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q, n, max(n-rank, 0), minBeyond)
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted[rank-1], nil
}

// median returns the middle value of a small set of repeats (the mean of
// the two middle values for an even count). It is for repeated set-up
// timings, not for latency samples, which go through percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms renders a duration in milliseconds with its full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not load).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open [start, end) stretch of time.
type interval struct{ start, end time.Time }

// unionLength returns the total length covered by the intervals, clipped to
// [lo, hi).
func unionLength(ivs []interval, lo, hi time.Time) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return a.start.Compare(b.start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// calibrate times a fixed pure-Go integer loop that calls no repository
// code, five times, and returns the median in milliseconds. It shows host
// speed drift next to every run's numbers.
func calibrate() float64 {
	var runs []float64
	var sink uint64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
		runs = append(runs, ms(time.Since(start)))
	}
	calibSink = sink
	return median(runs)
}

// calibSink keeps the calibration loop's result live so the compiler
// cannot drop the loop.
var calibSink uint64
