package simul

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// intMsg is a test message carrying one value in [0, n).
type intMsg struct {
	v    int
	bits int
}

func (m intMsg) Bits() int { return m.bits }

// maxFlood computes the maximum node ID in the graph by flooding for diam+1
// rounds; a classic sanity workload for a synchronous engine.
type maxFlood struct {
	best   int
	rounds int
}

func (a *maxFlood) Step(ctx *Context, inbox []Envelope) {
	if ctx.Round() == 0 {
		a.best = ctx.ID()
	}
	for _, e := range inbox {
		if m := e.Msg.(intMsg); m.v > a.best {
			a.best = m.v
		}
	}
	if ctx.Round() == a.rounds {
		ctx.Halt(a.best)
		return
	}
	ctx.Broadcast(intMsg{v: a.best, bits: BitsForRange(int64(ctx.N()))})
}

func TestMaxFloodOnPath(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g := graph.Path(10)
		res, err := Run(g, Config{Parallel: parallel}, func(v int) Automaton {
			return &maxFlood{rounds: 10}
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if res.Outputs[v] != 9 {
				t.Fatalf("parallel=%v: node %d output %v, want 9", parallel, v, res.Outputs[v])
			}
		}
		if res.Metrics.Rounds != 11 {
			t.Fatalf("rounds = %d, want 11", res.Metrics.Rounds)
		}
	}
}

func TestRoundsCountedUntilLastHalt(t *testing.T) {
	// Node v halts at round v: total rounds = n.
	g := graph.Complete(5)
	res, err := Run(g, Config{}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			if ctx.Round() == ctx.ID() {
				ctx.Halt(ctx.Round())
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", res.Metrics.Rounds)
	}
}

// automatonFunc adapts a function to the Automaton interface.
type automatonFunc func(ctx *Context, inbox []Envelope)

func (f automatonFunc) Step(ctx *Context, inbox []Envelope) { f(ctx, inbox) }

func TestSendToNonNeighborFails(t *testing.T) {
	g := graph.Path(3) // 0-1-2; 0 and 2 not adjacent
	_, err := Run(g, Config{}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			if ctx.ID() == 0 {
				ctx.Send(2, intMsg{v: 1, bits: 1})
			}
			ctx.Halt(nil)
		})
	})
	if err == nil {
		t.Fatal("send to non-neighbor did not fail the run")
	}
}

func TestDoubleSendFails(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(g, Config{}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			if ctx.ID() == 0 {
				ctx.Send(1, intMsg{v: 1, bits: 1})
				ctx.Send(1, intMsg{v: 2, bits: 1})
			}
			ctx.Halt(nil)
		})
	})
	if err == nil {
		t.Fatal("two messages on one edge in one round did not fail the run")
	}
}

func TestCongestBudgetEnforced(t *testing.T) {
	g := graph.Path(2)
	// n=2 -> ceil(log2(3)) = 2 bits; default factor 16 -> budget 32 bits.
	_, err := Run(g, Config{Model: CONGEST}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			ctx.Broadcast(intMsg{v: 1, bits: 33})
			ctx.Halt(nil)
		})
	})
	if err == nil {
		t.Fatal("oversized CONGEST message did not fail the run")
	}
	// The same message is fine in LOCAL.
	_, err = Run(g, Config{Model: LOCAL}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			ctx.Broadcast(intMsg{v: 1, bits: 1 << 20})
			ctx.Halt(nil)
		})
	})
	if err != nil {
		t.Fatalf("LOCAL rejected a large message: %v", err)
	}
}

func TestRoundLimit(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(g, Config{MaxRounds: 10}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {}) // never halts
	})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

func TestMessagesToHaltedNodesDropped(t *testing.T) {
	g := graph.Path(2)
	got := make(chan int, 1)
	_, err := Run(g, Config{}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			switch ctx.ID() {
			case 0:
				// Halt immediately; messages sent to us later must vanish.
				ctx.Halt(nil)
			case 1:
				if ctx.Round() < 3 {
					ctx.Send(0, intMsg{v: ctx.Round(), bits: 4})
					return
				}
				got <- len(inbox)
				ctx.Halt(nil)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := <-got; n != 0 {
		t.Fatalf("halted node's neighbor saw %d stale messages", n)
	}
}

func TestDeterminismAcrossEngines(t *testing.T) {
	g := graph.Complete(8)
	run := func(parallel bool) []any {
		res, err := Run(g, Config{Seed: 99, Parallel: parallel}, func(v int) Automaton {
			return automatonFunc(func(ctx *Context, inbox []Envelope) {
				// Random behaviour: broadcast random values for 5 rounds,
				// then halt with a digest of everything received.
				if ctx.Round() < 5 {
					ctx.Broadcast(intMsg{v: ctx.Rand().Intn(1000), bits: 10})
					return
				}
				sum := 0
				for _, e := range inbox {
					sum = sum*31 + e.Msg.(intMsg).v + e.From
				}
				ctx.Halt(sum)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	seq := run(false)
	par := run(true)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sequential and parallel outputs differ:\n%v\n%v", seq, par)
	}
	// And re-running sequentially reproduces exactly.
	if !reflect.DeepEqual(seq, run(false)) {
		t.Fatal("sequential run not reproducible")
	}
}

func TestInboxSortedBySender(t *testing.T) {
	g := graph.Star(6) // center 0
	_, err := Run(g, Config{Parallel: true}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			if ctx.Round() == 0 {
				if ctx.ID() != 0 {
					ctx.Send(0, intMsg{v: ctx.ID(), bits: 4})
				}
				return
			}
			if ctx.ID() == 0 {
				last := -1
				for _, e := range inbox {
					if e.From <= last {
						t.Errorf("inbox not sorted by sender: %d after %d", e.From, last)
					}
					last = e.From
				}
			}
			ctx.Halt(nil)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	g := graph.Path(3)
	res, err := Run(g, Config{}, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			if ctx.Round() == 0 {
				ctx.Broadcast(intMsg{v: 0, bits: 5})
				return
			}
			ctx.Halt(nil)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 0: node 0 and 2 send 1 msg each, node 1 sends 2. Total 4.
	if res.Metrics.Messages != 4 {
		t.Fatalf("messages = %d, want 4", res.Metrics.Messages)
	}
	if res.Metrics.TotalBits != 20 || res.Metrics.MaxMessageBits != 5 {
		t.Fatalf("bits = %d max = %d", res.Metrics.TotalBits, res.Metrics.MaxMessageBits)
	}
	if res.Metrics.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Metrics.Rounds)
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Run(graph.NewBuilder(0).MustBuild(), Config{}, func(v int) Automaton {
		t.Fatal("build called for empty graph")
		return nil
	})
	if err != nil || res.Metrics.Rounds != 0 {
		t.Fatalf("empty graph: res=%+v err=%v", res, err)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := ceilLog2(x); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestBitsForRange(t *testing.T) {
	cases := map[int64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9}
	for x, want := range cases {
		if got := BitsForRange(x); got != want {
			t.Errorf("BitsForRange(%d) = %d, want %d", x, got, want)
		}
	}
}
