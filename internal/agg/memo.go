package agg

// Exchange folding (the suffix-sum trick of [LPSR09]): a node simulating d
// edges evaluates each state's queries over the data of its d-1 other live
// states — O(d²·q) projections per round if done directly. But machines
// build their query plans once, as arrays, and hand every state pointers to
// the entries, so many states of one node ask the *same* query over the same
// live-data list, each excluding only itself. For such a query the node folds
// once forward and once backward —
//
//	pre[i] = f(liveData[0..i))    suf[i] = f(liveData[i..d))
//
// — and stores every state's "all except me" partial φ(pre[i], suf[i+1]),
// which is exact for any joining function φ (Definition 2.5 demands
// associativity and commutativity); each later ask is one indexed load.
//
// An entry is keyed by the plan entry's address: plan entries stay unchanged
// for the whole run, so one address is one query. The first time a round asks
// a query the memo builds its entry, projecting each live element once into a
// per-node scratch row and running both folds over plain ints. Entries are
// capped at memoPlanCap per node per round (a query asked past the cap folds
// directly), and every buffer is reused across rounds, so the memo allocates
// only while growing to steady state.

const memoPlanCap = 8 // max prefix/suffix entries per node per round

// partialPlan is one memo entry: ex[0] is q folded over every live element,
// ex[i+1] the fold over all but element i.
type partialPlan struct {
	q  *Query
	ex []int64 // len(liveData)+1, reused across rounds
}

// foldMemo is one node's per-round exchange-folding state. hits/misses are
// run-lifetime telemetry counters (a hit answers from an existing entry in
// O(1); a miss builds an entry or folds directly); they live here — in the
// per-node state that is already arena-allocated — so counting costs one
// increment and no allocation or sharing.
type foldMemo struct {
	plans  []partialPlan
	nplan  int
	row    []int64 // scratch: one projection per live element
	hits   uint64
	misses uint64
}

// reset invalidates the memo for a new virtual round (the live-data list or
// the underlying Data values changed). Entry buffers stay allocated.
func (m *foldMemo) reset() { m.nplan = 0 }

// partial returns q folded over data excluding index skip (-1 excludes
// nothing). The first ask of a round builds q's entry; later asks of the same
// plan entry answer from it.
func (m *foldMemo) partial(q *Query, data []Data, skip int) int64 {
	for k := 0; k < m.nplan; k++ {
		if p := &m.plans[k]; p.q == q {
			m.hits++
			return p.ex[skip+1]
		}
	}
	m.misses++
	if m.nplan == memoPlanCap {
		return foldExcept(q, data, skip)
	}
	if m.nplan == len(m.plans) {
		m.plans = append(m.plans, partialPlan{})
	}
	p := &m.plans[m.nplan]
	m.nplan++
	p.q = q
	if cap(m.row) < len(data) {
		m.row = make([]int64, len(data))
	}
	p.build(q.project(m.row, data), q.Agg)
	return p.ex[skip+1]
}

// build fills the entry from the projected row: a forward pass leaves
// pre[i] in ex[i+1] and the whole fold in ex[0], then a backward pass joins
// each ex[i+1] with the running suffix.
func (p *partialPlan) build(row []int64, a Aggregate) {
	n := len(row)
	if cap(p.ex) < n+1 {
		p.ex = make([]int64, n+1)
	}
	ex := p.ex[:n+1]
	id := a.Identity()
	acc, suf := id, id
	switch a {
	case Sum:
		for j, v := range row {
			ex[j+1] = acc
			acc += v
		}
		for j := n - 1; j >= 0; j-- {
			ex[j+1] += suf
			suf += row[j]
		}
	case Min:
		for j, v := range row {
			ex[j+1] = acc
			acc = min(acc, v)
		}
		for j := n - 1; j >= 0; j-- {
			ex[j+1] = min(ex[j+1], suf)
			suf = min(suf, row[j])
		}
	case Max:
		for j, v := range row {
			ex[j+1] = acc
			acc = max(acc, v)
		}
		for j := n - 1; j >= 0; j-- {
			ex[j+1] = max(ex[j+1], suf)
			suf = max(suf, row[j])
		}
	case BitOr:
		for j, v := range row {
			ex[j+1] = acc
			acc |= v
		}
		for j := n - 1; j >= 0; j-- {
			ex[j+1] |= suf
			suf |= row[j]
		}
	case And: // acc, suf and the stored prefixes are 0 or 1
		for j, v := range row {
			ex[j+1] = acc
			if v == 0 {
				acc = 0
			}
		}
		for j := n - 1; j >= 0; j-- {
			ex[j+1] &= suf
			if row[j] == 0 {
				suf = 0
			}
		}
	default: // Or, with the same 0/1 invariant
		for j, v := range row {
			ex[j+1] = acc
			if v != 0 {
				acc = 1
			}
		}
		for j := n - 1; j >= 0; j-- {
			ex[j+1] |= suf
			if row[j] != 0 {
				suf = 1
			}
		}
	}
	ex[0] = acc
}
