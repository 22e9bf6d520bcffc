package obs

import (
	"strings"
	"testing"
)

func TestRoundTraceAdd(t *testing.T) {
	a := RoundTrace{Rounds: 3, VirtualRounds: 5, Messages: 100, Bits: 800,
		PeakRoundMessages: 40, PeakRoundBits: 320, PeakActive: 7,
		CompactMoves: 2, MemoHits: 10, MemoMisses: 4}
	b := RoundTrace{Rounds: 2, VirtualRounds: 1, Messages: 50, Bits: 400,
		PeakRoundMessages: 60, PeakRoundBits: 100, PeakActive: 3,
		CompactMoves: 1, MemoHits: 5, MemoMisses: 6}
	a.Add(b)
	want := RoundTrace{Rounds: 5, VirtualRounds: 6, Messages: 150, Bits: 1200,
		PeakRoundMessages: 60, PeakRoundBits: 320, PeakActive: 7,
		CompactMoves: 3, MemoHits: 15, MemoMisses: 10}
	if a != want {
		t.Fatalf("Add: got %+v, want %+v", a, want)
	}
}

func TestTraceIDs(t *testing.T) {
	id := NewTraceID()
	if len(id) != 16 {
		t.Fatalf("NewTraceID() = %q, want 16 hex chars", id)
	}
	for _, r := range id {
		if !strings.ContainsRune("0123456789abcdef", r) {
			t.Fatalf("NewTraceID() = %q contains non-hex %q", id, r)
		}
	}
	if a, b := NewTraceID(), NewTraceID(); a == b {
		t.Fatalf("two trace IDs collided: %q", a)
	}
	child := ChildTraceID("abc123", 7)
	if child != "abc123.007" {
		t.Fatalf("ChildTraceID = %q, want abc123.007", child)
	}
	if !strings.HasPrefix(child, "abc123") {
		t.Fatal("child trace must preserve the parent prefix for log grep")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Bounds are upper-inclusive: 0.5 and 1 land in le=1; 5 and 10 in le=10;
	// 99 in le=100; 1000 overflows to +Inf.
	wantCounts := []uint64{2, 2, 1, 1}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("counts: got %v, want %v", s.Counts, wantCounts)
	}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("counts: got %v, want %v", s.Counts, wantCounts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 0.5+1+5+10+99+1000 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestNewHistogramPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(10, 1) should panic")
		}
	}()
	NewHistogram(10, 1)
}
