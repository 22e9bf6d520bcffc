package agg

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// foldTestQueries returns one query per aggregate × value kind × guard shape
// over Data of four fields. Guards cover no condition, one, and MaxConds;
// Else covers the zero default and the Min/Max-style sentinels.
func foldTestQueries() []Query {
	values := []Value{Constant(5), Field(1), Bit(2, 3), FixedPow2Neg(2, 20)}
	guards := []Guard{
		{},
		Where(Eq(0, 1)),
		Where(Cond{Field: 0, Lo: 0, Hi: 2}, Cond{Field: 3, Lo: -2, Hi: 6}, Eq(1, 4)),
	}
	var qs []Query
	for _, a := range []Aggregate{Sum, Min, Max, And, Or, BitOr} {
		for _, v := range values {
			for _, g := range guards {
				for _, e := range []int64{0, -1, 1 << 40} {
					qs = append(qs, Query{Agg: a, Guard: g, Value: v, Else: e})
				}
			}
		}
	}
	return qs
}

func randomData(r *rng.Stream, n int) []Data {
	data := make([]Data, n)
	for i := range data {
		data[i] = Data{
			int64(r.Intn(3)),      // guard field: 0, 1, 2
			int64(r.Intn(9)) - 2,  // value field, negatives included
			int64(r.Intn(24)),     // shift field: in and out of range for Bit(2, 3)
			int64(r.Intn(12)) - 4, // second guard field
		}
	}
	return data
}

// without returns data minus element skip (-1 removes nothing).
func without(data []Data, skip int) []Data {
	out := make([]Data, 0, len(data))
	for j, d := range data {
		if j != skip {
			out = append(out, d)
		}
	}
	return out
}

// TestFoldsAgreeWithEval checks the runtimes' specialized folds against the
// reference Query.Eval: for every query shape, random data and every skip in
// -1..n-1, foldExcept and the exchange-folding memo's partial equal Eval
// over the data minus the skipped element. Each query first gets a round of
// its own (its memo entry is built on the first ask and answers the rest);
// then one round asks every query, so all past memoPlanCap fold directly.
func TestFoldsAgreeWithEval(t *testing.T) {
	qs := foldTestQueries()
	r := rng.New(17)
	var m foldMemo
	check := func(trial int, q *Query, data []Data) {
		t.Helper()
		for skip := -1; skip < len(data); skip++ {
			want := q.Eval(without(data, skip))
			if got := foldExcept(q, data, skip); got != want {
				t.Fatalf("trial %d %s query %+v skip %d: foldExcept %d, Eval %d", trial, q.Agg.Name(), *q, skip, got, want)
			}
			if got := m.partial(q, data, skip); got != want {
				t.Fatalf("trial %d %s query %+v skip %d: memo partial %d, Eval %d", trial, q.Agg.Name(), *q, skip, got, want)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		data := randomData(r, trial%13)
		for qi := range qs {
			m.reset()
			check(trial, &qs[qi], data)
		}
		m.reset()
		for qi := range qs {
			check(trial, &qs[qi], data)
		}
		if m.nplan != memoPlanCap {
			t.Fatalf("memo holds %d entries after %d queries, want memoPlanCap = %d", m.nplan, len(qs), memoPlanCap)
		}
	}
}

// TestQueryAt pins each value kind and the guard semantics on one element.
func TestQueryAt(t *testing.T) {
	d := Data{1, 7, 5, -3}
	cases := []struct {
		q    Query
		want int64
	}{
		{Query{Value: Constant(9)}, 9},
		{Query{Value: Field(1)}, 7},
		{Query{Value: Bit(2, 3)}, 1 << 2},
		{Query{Value: FixedPow2Neg(2, 20)}, 1 << 15},
		{Query{Guard: Where(Eq(0, 1)), Value: Field(1)}, 7},
		{Query{Guard: Where(Eq(0, 2)), Value: Field(1), Else: -1}, -1},
		{Query{Guard: Where(Cond{Field: 3, Lo: -3, Hi: -2}), Value: Constant(1)}, 1},
		{Query{Guard: Where(Cond{Field: 3, Lo: -5, Hi: -3}), Value: Constant(1)}, 0},
		{Query{Guard: Where(Eq(0, 1), Eq(1, 7), Cond{Field: 2, Lo: 6, Hi: math.MaxInt64}), Value: Constant(1), Else: 1 << 40}, 1 << 40},
	}
	for i, c := range cases {
		if got := c.q.at(d); got != c.want {
			t.Errorf("case %d: At = %d, want %d", i, got, c.want)
		}
	}
}

func TestWhereRejectsTooManyConds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Where accepted more than MaxConds conditions")
		}
	}()
	_ = Where(make([]Cond, MaxConds+1)...)
}
