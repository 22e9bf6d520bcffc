package main

import (
	"testing"
	"time"
)

func TestAttributionSumsToWall(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	end := at(100)
	// One request: submit, then a stream that waits on a queued and then
	// running cell, then the receipt. Along one chain each span's self time
	// is its duration minus what its children cover.
	chain := []span{
		{Name: spanRequest, Start: at(10), End: at(90)},
		{Name: spanSubmit, Start: at(10), End: at(20)},
		{Name: spanStream, Start: at(20), End: at(90)},
		{Name: spanQueue, Start: at(22), End: at(30)},
		{Name: spanRun, Start: at(30), End: at(80)},
		{Name: spanReceive, Start: at(85), End: at(88)},
	}
	self, residue, err := attribute(chain, t0, end, attribution)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		spanSubmit:  10 * time.Millisecond,
		spanQueue:   8 * time.Millisecond,
		spanRun:     50 * time.Millisecond,
		spanReceive: 3 * time.Millisecond,
		spanStream:  9 * time.Millisecond, // 70 − 8 − 50 − 3
		spanRequest: 0,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %s, want %s", name, self[name], d)
		}
	}
	if residue != 20*time.Millisecond {
		t.Errorf("residue = %s, want 20ms", residue)
	}
	assertSum(t, self, residue, end.Sub(t0))

	// Two concurrent clients, spans poking out of the window on both
	// sides: every instant is still counted exactly once.
	concurrent := append(chain,
		span{Name: spanRequest, Start: at(-5), End: at(60)},
		span{Name: spanSubmit, Start: at(-5), End: at(15)},
		span{Name: spanStream, Start: at(15), End: at(60)},
		span{Name: spanRun, Start: at(50), End: at(120)},
		span{Name: spanWorkerGroup, Start: at(95), End: at(130)},
	)
	self, residue, err = attribute(concurrent, t0, end, attribution)
	if err != nil {
		t.Fatal(err)
	}
	assertSum(t, self, residue, end.Sub(t0))
	if self[spanRun] != 70*time.Millisecond {
		t.Errorf("self(run) = %s, want 70ms (30..100)", self[spanRun])
	}
}

func assertSum(t *testing.T, self map[string]time.Duration, residue, wall time.Duration) {
	t.Helper()
	sum := residue
	for _, d := range self {
		sum += d
	}
	if sum != wall {
		t.Errorf("self times + residue = %s, want the root's wall %s", sum, wall)
	}
}

func TestAttributionRejectsUnrankedSpan(t *testing.T) {
	t0 := time.Unix(0, 0)
	_, _, err := attribute([]span{{Name: "mystery.layer", Start: t0, End: t0.Add(time.Second)}},
		t0, t0.Add(time.Second), attribution)
	if err == nil {
		t.Fatal("an unranked span was attributed")
	}
}
