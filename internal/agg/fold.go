package agg

// Specialized aggregate folding. The runtimes spend almost all their time
// folding one query over the Data of up to ∆ neighbors. The aggregate set is
// closed, so every fold switches on the aggregate once and runs a loop
// specialized to it, with the query's guard and value inlined — no indirect
// call per element.

// project writes q's value for each element of data into row, which must
// have room for len(data) values, and returns row[:len(data)]. Each element
// is projected exactly once.
func (q *Query) project(row []int64, data []Data) []int64 {
	row = row[:len(data)]
	for j, d := range data {
		row[j] = q.at(d)
	}
	return row
}

// foldExcept evaluates q over data, skipping index skip (pass -1 to fold
// everything). It agrees with Query.Eval over data minus the skipped element.
func foldExcept(q *Query, data []Data, skip int) int64 {
	switch q.Agg {
	case Sum:
		var acc int64
		for j, d := range data {
			if j != skip {
				acc += q.at(d)
			}
		}
		return acc
	case Min:
		acc := Min.Identity()
		for j, d := range data {
			if v := q.at(d); j != skip && v < acc {
				acc = v
			}
		}
		return acc
	case Max:
		acc := Max.Identity()
		for j, d := range data {
			if v := q.at(d); j != skip && v > acc {
				acc = v
			}
		}
		return acc
	case And:
		acc := int64(1)
		for j, d := range data {
			if j != skip && q.at(d) == 0 {
				acc = 0
			}
		}
		return acc
	case Or:
		var acc int64
		for j, d := range data {
			if j != skip && q.at(d) != 0 {
				acc = 1
			}
		}
		return acc
	default: // BitOr
		var acc int64
		for j, d := range data {
			if j != skip {
				acc |= q.at(d)
			}
		}
		return acc
	}
}
