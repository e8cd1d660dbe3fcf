// Compiled plan execution. Operators consume and produce int32 selection
// vectors held in the arena; scans fill a vector with candidate row ids
// and refine it in place, one branch-free compaction pass per predicate;
// joins emit matched (left, right) tuple pairs by appending to the join's
// output vectors; rows are materialized exactly once, into the final Result
// (two allocations: the Value backing array and the Row headers).
package executor

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/optimizer"
	"repro/internal/tpch"
)

// Exec runs the compiled plan at the given parameter values and returns a
// freshly materialized result. Safe for concurrent use; the result shares
// nothing with the arena (the Schema is shared with the plan and must be
// treated as read-only).
func (cp *CompiledPlan) Exec(params []float64) (*Result, error) {
	res, _, err := cp.execute(params, nil, false)
	return res, err
}

// execute runs the plan once on a pooled arena and materializes the
// result; with observe set it first harvests per-operator cardinalities
// into obs.
func (cp *CompiledPlan) execute(params []float64, obs []CardObservation, observe bool) (*Result, []CardObservation, error) {
	if err := cp.exec.faults.Fail(faults.ExecutorError); err != nil {
		return nil, obs, fmt.Errorf("executor: %w", err)
	}
	if len(params) != cp.nParams {
		return nil, obs, fmt.Errorf("executor: got %d parameters, want %d", len(params), cp.nParams)
	}
	ar := cp.pool.Get().(*Arena)
	cp.run(cp.root, ar, params)
	if observe {
		obs = harvest(cp.root, ar, params, obs)
	}
	var res *Result
	if cp.agg != nil {
		res = cp.materializeAgg(ar)
	} else {
		res = cp.materialize(ar)
	}
	cp.pool.Put(ar)
	return res, obs, nil
}

func (cp *CompiledPlan) run(n *cNode, ar *Arena, params []float64) {
	switch n.op {
	case optimizer.OpSeqScan:
		n.runSeqScan(ar, params)
	case optimizer.OpIndexScan:
		n.runIndexScan(ar, params)
	case optimizer.OpHashJoin:
		cp.run(n.left, ar, params)
		cp.run(n.right, ar, params)
		n.runHashJoin(ar, params)
	case optimizer.OpMergeJoin:
		cp.run(n.left, ar, params)
		cp.run(n.right, ar, params)
		n.runMergeJoin(ar, params)
	case optimizer.OpIndexNLJoin:
		cp.run(n.left, ar, params)
		n.runIndexNLJoin(ar, params)
	case optimizer.OpNLJoin:
		cp.run(n.left, ar, params)
		cp.run(n.right, ar, params)
		n.runNLJoin(ar, params)
	}
}

// testRow evaluates one compiled non-join predicate against a direct base
// table row id. The comparison forms replicate the row engine exactly
// (including its NaN behaviour) so compiled output stays bit-identical.
func (p *cPred) testRow(params []float64, id int32) bool {
	switch p.kind {
	case optimizer.PredCmpNum:
		return cmpNum(p.col.Nums[id], p.op, p.rhs(params))
	case optimizer.PredCmpStr:
		return p.col.Strs[id] == p.strValue
	case optimizer.PredBetween:
		v := p.col.Nums[id]
		return !(v < p.lo || v > p.hi)
	case optimizer.PredJoin:
		return typedEq(p.col, id, p.col2, id)
	}
	return false
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, which keeps refine's compaction loops branch-free.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// refine compacts the row ids in sel that pass the predicate to the front
// of sel, in order, and returns that prefix. Every row id is stored and the
// write position advances only on a pass, so the hot numeric loops carry no
// data-dependent branch. The comparisons keep the row engine's NaN
// behaviour: a NaN column value fails every comparison and passes BETWEEN,
// which rejects only values below lo or above hi.
func (p *cPred) refine(params []float64, sel []int32) []int32 {
	k := 0
	nums := p.col.Nums
	switch p.kind {
	case optimizer.PredCmpNum:
		v := p.rhs(params)
		switch p.op {
		case optimizer.OpEq:
			for _, id := range sel {
				sel[k] = id
				k += b2i(nums[id] == v)
			}
		case optimizer.OpLE:
			for _, id := range sel {
				sel[k] = id
				k += b2i(nums[id] <= v)
			}
		case optimizer.OpGE:
			for _, id := range sel {
				sel[k] = id
				k += b2i(nums[id] >= v)
			}
		case optimizer.OpLT:
			for _, id := range sel {
				sel[k] = id
				k += b2i(nums[id] < v)
			}
		case optimizer.OpGT:
			for _, id := range sel {
				sel[k] = id
				k += b2i(nums[id] > v)
			}
		}
	case optimizer.PredBetween:
		for _, id := range sel {
			x := nums[id]
			sel[k] = id
			k += b2i(!(x < p.lo)) & b2i(!(x > p.hi))
		}
	default:
		for _, id := range sel {
			sel[k] = id
			k += b2i(p.testRow(params, id))
		}
	}
	return sel[:k]
}

// refineAll narrows sel through every predicate in filters.
func refineAll(filters []cPred, params []float64, sel []int32) []int32 {
	for i := range filters {
		sel = filters[i].refine(params, sel)
	}
	return sel
}

func (n *cNode) runSeqScan(ar *Arena, params []float64) {
	total := n.table.NumRows()
	sel := ar.vecs[n.slots[0]]
	if cap(sel) < total {
		sel = make([]int32, total)
	}
	sel = sel[:total]
	for i := range sel {
		sel[i] = int32(i)
	}
	ar.vecs[n.slots[0]] = refineAll(n.filters, params, sel)
}

// bounds returns the index scan's effective key range for params.
// Parameter-driven bounds re-derive exactly as Recost's rebind does; later
// derivations win, matching the rebind order over q.Preds.
func (n *cNode) bounds(params []float64) (lo, hi float64) {
	lo, hi = n.lo, n.hi
	for _, d := range n.derive {
		lo, hi = optimizer.SargBoundsFor(d.Op, params[d.ParamIdx])
	}
	return lo, hi
}

func (n *cNode) runIndexScan(ar *Arena, params []float64) {
	sel := append(ar.vecs[n.slots[0]][:0], n.index.RangeRows(n.bounds(params))...)
	ar.vecs[n.slots[0]] = refineAll(n.filters, params, sel)
}

// evalJoinFilters evaluates the compiled join-level filters against a
// candidate (left tuple li, right tuple ri) pair. rightDirect marks
// index-nested-loop context, where ri is a direct inner row id rather than
// an index into a selection vector.
func evalJoinFilters(filters []cPred, params []float64, ar *Arena, li, ri int32, rightDirect bool) bool {
	for fi := range filters {
		p := &filters[fi]
		idA := joinRowID(ar, p.side, p.slot, li, ri, rightDirect)
		if p.kind == optimizer.PredJoin {
			idB := joinRowID(ar, p.side2, p.slot2, li, ri, rightDirect)
			if !typedEq(p.col, idA, p.col2, idB) {
				return false
			}
			continue
		}
		if !p.testRow(params, idA) {
			return false
		}
	}
	return true
}

func joinRowID(ar *Arena, side, slot int, li, ri int32, rightDirect bool) int32 {
	if side == 0 {
		return ar.vecs[slot][li]
	}
	if rightDirect {
		return ri
	}
	return ar.vecs[slot][ri]
}

// emit appends the combined (left li, right ri) tuple to the join's output
// vectors. For index-nested-loop joins ri is the direct inner row id.
func (n *cNode) emit(ar *Arena, li, ri int32, rightDirect bool) {
	nl := len(n.left.slots)
	for x, s := range n.left.slots {
		ar.vecs[n.slots[x]] = append(ar.vecs[n.slots[x]], ar.vecs[s][li])
	}
	if rightDirect {
		ar.vecs[n.slots[nl]] = append(ar.vecs[n.slots[nl]], ri)
		return
	}
	for x, s := range n.right.slots {
		ar.vecs[n.slots[nl+x]] = append(ar.vecs[n.slots[nl+x]], ar.vecs[s][ri])
	}
}

func (n *cNode) resetOutput(ar *Arena) {
	for _, s := range n.slots {
		ar.vecs[s] = ar.vecs[s][:0]
	}
}

func (n *cNode) runHashJoin(ar *Arena, params []float64) {
	n.resetOutput(ar)
	buildSlot, probeSlot := n.rightSlot, n.leftSlot
	buildKey, probeKey := n.rightKey, n.leftKey
	if n.buildLeft {
		buildSlot, probeSlot = n.leftSlot, n.rightSlot
		buildKey, probeKey = n.leftKey, n.rightKey
	}
	buildVec := ar.vecs[buildSlot]
	probeVec := ar.vecs[probeSlot]
	next := ar.chain(len(buildVec))

	// Build: chained buckets in insertion order (head<<32 | tail), so probe
	// emission order matches the row engine's bucket-append order exactly.
	if n.strKey {
		ht := ar.htS
		clear(ht)
		keys := buildKey.Strs
		for i, id := range buildVec {
			he, ok := ht[keys[id]]
			if !ok {
				he = -1
			}
			ht[keys[id]] = link(he, int32(i), next)
		}
		pkeys := probeKey.Strs
		for pi, id := range probeVec {
			if he, ok := ht[pkeys[id]]; ok {
				n.probeChain(ar, params, next, he, int32(pi))
			}
		}
		return
	}
	ht := &ar.ht
	ht.reset(len(buildVec))
	keys := buildKey.Nums
	for i, id := range buildVec {
		k, ok := joinKey(keys[id])
		if !ok {
			continue
		}
		j := ht.slot(k)
		ht.keys[j], ht.vals[j] = k, link(ht.vals[j], int32(i), next)
	}
	pkeys := probeKey.Nums
	for pi, id := range probeVec {
		k, ok := joinKey(pkeys[id])
		if !ok {
			continue
		}
		if he := ht.vals[ht.slot(k)]; he >= 0 {
			n.probeChain(ar, params, next, he, int32(pi))
		}
	}
}

// probeChain walks one build-side bucket for probe tuple pi, emitting
// filtered matches in build insertion order.
func (n *cNode) probeChain(ar *Arena, params []float64, next []int32, he int64, pi int32) {
	for bi := int32(he >> 32); bi >= 0; bi = next[bi] {
		li, ri := pi, bi
		if n.buildLeft {
			li, ri = bi, pi
		}
		if evalJoinFilters(n.joinFilters, params, ar, li, ri, false) {
			n.emit(ar, li, ri, false)
		}
	}
}

func (n *cNode) runMergeJoin(ar *Arena, params []float64) {
	n.resetOutput(ar)
	lvec, rvec := ar.vecs[n.leftSlot], ar.vecs[n.rightSlot]
	ar.permA, ar.keysA = permKeys(ar.permA, ar.keysA, len(lvec))
	ar.permB, ar.keysB = permKeys(ar.permB, ar.keysB, len(rvec))
	for i, id := range lvec {
		ar.keysA[i] = n.leftKey.Nums[id]
	}
	for i, id := range rvec {
		ar.keysB[i] = n.rightKey.Nums[id]
	}
	// Stable sorts yield the same permutation the row engine's
	// sort.SliceStable produces, so equal-key run order is identical.
	ar.stableSortPerm(ar.permA, ar.keysA)
	ar.stableSortPerm(ar.permB, ar.keysB)
	permA, permB, keysA, keysB := ar.permA, ar.permB, ar.keysA, ar.keysB
	i, j := 0, 0
	for i < len(permA) && j < len(permB) {
		lv, rv := keysA[permA[i]], keysB[permB[j]]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			jEnd := j
			for jEnd < len(permB) && keysB[permB[jEnd]] == lv {
				jEnd++
			}
			for ; i < len(permA) && keysA[permA[i]] == lv; i++ {
				li := permA[i]
				for k := j; k < jEnd; k++ {
					ri := permB[k]
					if evalJoinFilters(n.joinFilters, params, ar, li, ri, false) {
						n.emit(ar, li, ri, false)
					}
				}
			}
			j = jEnd
		}
	}
}

func (n *cNode) runIndexNLJoin(ar *Arena, params []float64) {
	n.resetOutput(ar)
	lvec := ar.vecs[n.leftSlot]
	keys := n.leftKey.Nums
	for li := range lvec {
		v := keys[lvec[li]]
		inner := refineAll(n.innerFilters, params, append(ar.inner[:0], n.index.RangeRows(v, v)...))
		for _, ri := range inner {
			if evalJoinFilters(n.joinFilters, params, ar, int32(li), ri, true) {
				n.emit(ar, int32(li), ri, true)
			}
		}
		ar.inner = inner
	}
}

func (n *cNode) runNLJoin(ar *Arena, params []float64) {
	n.resetOutput(ar)
	nl := len(ar.vecs[n.left.slots[0]])
	nr := len(ar.vecs[n.right.slots[0]])
	for li := int32(0); li < int32(nl); li++ {
		for ri := int32(0); ri < int32(nr); ri++ {
			if evalJoinFilters(n.joinFilters, params, ar, li, ri, false) {
				n.emit(ar, li, ri, false)
			}
		}
	}
}

// materialize builds the final Result for a non-aggregating plan: one
// backing Value array plus the Row headers.
func (cp *CompiledPlan) materialize(ar *Arena) *Result {
	nt := len(ar.vecs[cp.root.slots[0]])
	if nt == 0 {
		return &Result{Schema: cp.schema}
	}
	width := len(cp.schema)
	backing := make([]Value, nt*width)
	rows := make([]Row, nt)
	for t := 0; t < nt; t++ {
		row := backing[t*width : (t+1)*width : (t+1)*width]
		for x := range cp.outCols {
			cs := &cp.outCols[x]
			id := ar.vecs[cs.slot][t]
			if cs.col.Kind == tpch.KindString {
				row[x] = Value{Str: cs.col.Strs[id], IsStr: true}
			} else {
				row[x] = Value{Num: cs.col.Nums[id]}
			}
		}
		rows[t] = row
	}
	return &Result{Schema: cp.schema, Rows: rows}
}

// materializeAgg folds the root's tuples into the arena accumulators and
// materializes the aggregate rows, replicating the row engine's grouping
// (first-seen order; keys equal when their encodings are, so -0 and +0 are
// distinct groups and a NaN groups with its own bit pattern) and its
// accumulation (identical float addition order) so results stay
// bit-identical.
func (cp *CompiledPlan) materializeAgg(ar *Arena) *Result {
	agg := cp.agg
	nt := len(ar.vecs[cp.root.slots[0]])
	nS := len(agg.specs)
	nK := len(agg.groupCols)
	ar.resetAgg()
	switch {
	case nK == 0 && nt > 0:
		// A global aggregate has one group: no key, no lookup. Each spec
		// folds its column straight down the root vector, in tuple order.
		// (Over zero tuples no case folds anything, and aggRows answers as
		// the row engine does.)
		ar.addGroup(nS)
		ar.counts[0] = float64(nt)
		for s := range agg.specs {
			sp := &agg.specs[s]
			if sp.slot < 0 {
				continue
			}
			for _, id := range ar.vecs[sp.slot] {
				ar.fold(s, sp.col.Nums[id])
			}
		}
	case agg.numKey():
		gc := &agg.groupCols[0]
		ar.ht.reset(0)
		for t, id := range ar.vecs[gc.slot] {
			cp.accumulate(ar, ar.numGroup(gc.col.Nums[id], nS), t)
		}
	default:
		for t := 0; t < nt; t++ {
			kb := ar.keyBuf[:0]
			for gi := range agg.groupCols {
				gc := &agg.groupCols[gi]
				id := ar.vecs[gc.slot][t]
				if gc.col.Kind == tpch.KindString {
					kb = append(kb, gc.col.Strs[id]...)
				} else {
					kb = appendFloat(kb, gc.col.Nums[id])
				}
				kb = append(kb, 0)
			}
			ar.keyBuf = kb
			g, ok := ar.groups[string(kb)]
			if !ok {
				g = ar.addGroup(nS)
				ar.groups[string(kb)] = g
				for gi := range agg.groupCols {
					gc := &agg.groupCols[gi]
					id := ar.vecs[gc.slot][t]
					if gc.col.Kind == tpch.KindString {
						ar.groupKeys = append(ar.groupKeys, Value{Str: gc.col.Strs[id], IsStr: true})
					} else {
						ar.groupKeys = append(ar.groupKeys, Value{Num: gc.col.Nums[id]})
					}
				}
			}
			cp.accumulate(ar, g, t)
		}
	}
	return cp.aggRows(ar, nS, nK)
}

// accumulate folds root tuple t into group g's accumulators.
func (cp *CompiledPlan) accumulate(ar *Arena, g int32, t int) {
	ar.counts[g]++
	base := int(g) * len(cp.agg.specs)
	for s := range cp.agg.specs {
		sp := &cp.agg.specs[s]
		if sp.slot >= 0 {
			ar.fold(base+s, sp.col.Nums[ar.vecs[sp.slot][t]])
		}
	}
}

// aggRows materializes the grouped accumulators into the final rows (or
// the row engine's zero-row special cases).
func (cp *CompiledPlan) aggRows(ar *Arena, nS, nK int) *Result {
	agg := cp.agg
	ng := len(ar.counts)
	if ng == 0 && nK == 0 {
		// A global aggregate over zero rows still yields one row.
		row := make(Row, nS)
		for s := range agg.specs {
			switch agg.specs[s].fn {
			case optimizer.AggMin:
				row[s] = Value{Num: math.Inf(1)}
			case optimizer.AggMax:
				row[s] = Value{Num: math.Inf(-1)}
			default:
				row[s] = Value{Num: 0}
			}
		}
		return &Result{Schema: agg.outSchema, Rows: []Row{row}}
	}
	if ng == 0 {
		// Matches the row engine: a grouped aggregate over zero input rows
		// yields an empty (non-nil) row set.
		return &Result{Schema: agg.outSchema, Rows: []Row{}}
	}
	width := len(agg.outSchema)
	backing := make([]Value, ng*width)
	rows := make([]Row, ng)
	for g := 0; g < ng; g++ {
		row := backing[g*width : (g+1)*width : (g+1)*width]
		copy(row, ar.groupKeys[g*nK:(g+1)*nK])
		base := g * nS
		for s := range agg.specs {
			sp := &agg.specs[s]
			var v float64
			switch sp.fn {
			case optimizer.AggCount:
				v = ar.counts[g]
			case optimizer.AggSum:
				v = ar.sums[base+s]
			case optimizer.AggAvg:
				v = ar.sums[base+s] / ar.counts[g]
			case optimizer.AggMin:
				v = ar.mins[base+s]
			case optimizer.AggMax:
				v = ar.maxs[base+s]
			}
			row[nK+s] = Value{Num: v}
		}
		rows[g] = row
	}
	return &Result{Schema: agg.outSchema, Rows: rows}
}
