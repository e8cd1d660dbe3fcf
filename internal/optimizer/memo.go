package optimizer

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/faults"
	"repro/internal/tpch"
)

// Memo is the per-template optimization memo: every piece of the
// Selinger-style enumeration that does not depend on parameter values is
// computed once per template and reused across all of its optimizations —
// query validation, table binding, the single-table/join predicate
// partition, the connectivity lists for every (subset, relation) DP step,
// and the catalog join selectivities (parameter-free by construction).
// Parameter-only re-optimizations then re-cost just the
// predicate-selectivity-dependent entries: base access paths and the cost
// roll-ups through the join DP, using pooled candidate-set scratch instead
// of per-call maps.
//
// A Memo is immutable after NewMemo apart from its internal scratch pool,
// so it is safe for concurrent OptimizeMemo calls (misses and audits on
// one hot template race freely).
type Memo struct {
	q *Query
	n int

	joins      []Predicate
	singleTmpl [][]Predicate // per relation: template single-table preds
	conn       [][]Predicate // (mask*n + r) -> connecting join preds
	connSel    [][]float64   // parallel join selectivities
	hasAgg     bool

	// StatsEpoch is the template's correction epoch captured at NewMemo.
	// The precomputed join selectivities (and every plan the memo produces)
	// embed that epoch's correction factors; holders compare it against
	// Stats().Epoch(template) and rebuild the memo when it moves.
	StatsEpoch uint64

	scratch sync.Pool // *dpScratch
}

// dpScratch is the pooled per-call DP state: one candidate set per
// relation subset. Candidate sets keep their capacity across calls; the
// plan nodes they reference are freshly allocated each call (the winner
// escapes into the plan cache).
type dpScratch struct {
	sets []candSet
}

// candSet keeps the best candidate per output order — the slice-based,
// deterministic replacement for the former map[string]candidate DP entry.
type candSet struct {
	orders []ColRef
	cands  []candidate
}

func (s *candSet) reset() {
	s.orders = s.orders[:0]
	s.cands = s.cands[:0]
}

func (s *candSet) add(c candidate) {
	for i := range s.orders {
		if s.orders[i] == c.sortedOn {
			if betterThan(c, s.cands[i]) {
				s.cands[i] = c
			}
			return
		}
	}
	s.orders = append(s.orders, c.sortedOn)
	s.cands = append(s.cands, c)
}

// best returns the overall winner, iterating orders in ascending canonical
// key order exactly as the former map-based bestCandidate did.
func (s *candSet) best() candidate {
	keys := make([]string, len(s.orders))
	for i, o := range s.orders {
		keys[i] = o.String()
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	best := s.cands[idx[0]]
	for _, i := range idx[1:] {
		if betterThan(s.cands[i], best) {
			best = s.cands[i]
		}
	}
	return best
}

// NewMemo validates the query once and precomputes its parameter-
// independent optimization state.
func (o *Optimizer) NewMemo(q *Query) (*Memo, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Tables)
	m := &Memo{q: q, n: n, hasAgg: len(q.GroupBy) > 0 || hasAggregates(q)}
	for _, t := range q.Tables {
		if o.db.Table(t.Table) == nil {
			return nil, fmt.Errorf("optimizer: unknown table %s", t.Table)
		}
	}
	if err := o.checkKinds(q); err != nil {
		return nil, err
	}
	aliasIdx := make(map[string]int, n)
	for i, t := range q.Tables {
		aliasIdx[t.Alias] = i
	}
	m.singleTmpl = make([][]Predicate, n)
	for _, p := range q.Preds {
		if p.Kind == PredJoin {
			m.joins = append(m.joins, p)
		} else {
			i, ok := aliasIdx[p.Col.Alias]
			if !ok {
				return nil, fmt.Errorf("optimizer: unbound alias %s", p.Col.Alias)
			}
			m.singleTmpl[i] = append(m.singleTmpl[i], p)
		}
	}
	// Connectivity and join selectivities for every DP step. Join
	// selectivities are parameter-free (1/max distinct, corrected by the
	// site factor at the memo's stats epoch), so they never change between
	// parameter instantiations; a correction-epoch bump invalidates the
	// whole memo instead.
	m.StatsEpoch = o.stats.Epoch(q.Template)
	m.conn = make([][]Predicate, (1<<uint(n))*n)
	m.connSel = make([][]float64, (1<<uint(n))*n)
	for mask := 1; mask < 1<<uint(n); mask++ {
		for r := 0; r < n; r++ {
			if mask&(1<<uint(r)) != 0 {
				continue
			}
			conn := connecting(m.joins, aliasIdx, mask, r)
			if len(conn) == 0 {
				continue
			}
			sels := make([]float64, len(conn))
			for i, j := range conn {
				s, err := o.joinSelectivity(q, j)
				if err != nil {
					return nil, err
				}
				sels[i] = s
			}
			m.conn[mask*n+r] = conn
			m.connSel[mask*n+r] = sels
		}
	}
	m.scratch.New = func() any {
		return &dpScratch{sets: make([]candSet, 1<<uint(n))}
	}
	return m, nil
}

// checkKinds rejects the template shapes the compiled executor cannot
// answer at any parameter values: a numeric comparison on a string column
// or a string comparison on a numeric one, an equi-join between columns of
// different kinds, and an aggregate other than COUNT over a string column.
// Callers have validated aliases and tables.
func (o *Optimizer) checkKinds(q *Query) error {
	kind := func(c ColRef) (tpch.ColKind, error) {
		col := o.db.Table(q.Binding(c.Alias).Table).Column(c.Column)
		if col == nil {
			return 0, fmt.Errorf("optimizer: unknown column %s", c)
		}
		return col.Kind, nil
	}
	for _, p := range q.Preds {
		k, err := kind(p.Col)
		if err != nil {
			return err
		}
		switch p.Kind {
		case PredJoin:
			rk, err := kind(p.RightCol)
			if err != nil {
				return err
			}
			if k != rk {
				return fmt.Errorf("optimizer: join %s = %s compares a string with a number", p.Col, p.RightCol)
			}
		case PredCmpStr:
			if k != tpch.KindString {
				return fmt.Errorf("optimizer: string comparison on numeric column %s", p.Col)
			}
		default:
			if k != tpch.KindNumeric {
				return fmt.Errorf("optimizer: numeric comparison on string column %s", p.Col)
			}
		}
	}
	for _, s := range q.Select {
		if s.Agg == AggNone || s.Agg == AggCount {
			continue
		}
		k, err := kind(s.Col)
		if err != nil {
			return err
		}
		if k != tpch.KindNumeric {
			return fmt.Errorf("optimizer: %s over string column", s)
		}
	}
	return nil
}

// OptimizeMemo selects the cheapest plan for the memoized template at the
// given parameter values. It produces the identical plan Optimize would —
// both run the same enumeration core — while skipping all per-call
// template analysis.
func (o *Optimizer) OptimizeMemo(m *Memo, params []float64) (*Plan, error) {
	o.faults.Sleep(faults.OptimizerLatency)
	if err := o.faults.Fail(faults.OptimizerError); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	return o.optimizeCore(m, params)
}

// optimizeCore is the enumeration shared by Optimize and OptimizeMemo.
func (o *Optimizer) optimizeCore(m *Memo, params []float64) (*Plan, error) {
	if got, want := len(params), m.q.ParamDegree(); got != want {
		return nil, fmt.Errorf("optimizer: got %d parameters, want %d", got, want)
	}
	n := m.n
	sc := m.scratch.Get().(*dpScratch)
	defer m.scratch.Put(sc)
	for i := range sc.sets {
		sc.sets[i].reset()
	}

	// Base access paths: the only entries whose selectivities depend on the
	// parameter values. Instantiated predicate slices are freshly allocated
	// (once per relation) because the chosen plan's nodes alias them beyond
	// this call.
	single := make([][]Predicate, n)
	base := make([][]candidate, n)
	for i, t := range m.q.Tables {
		single[i] = instantiateSingle(m.singleTmpl[i], params)
		cands, err := o.accessPaths(m.q.Template, t, single[i])
		if err != nil {
			return nil, err
		}
		base[i] = cands
		for _, c := range cands {
			sc.sets[1<<uint(i)].add(c)
		}
	}

	// Left-deep dynamic programming over relation subsets.
	for mask := 1; mask < 1<<uint(n); mask++ {
		set := &sc.sets[mask]
		if len(set.cands) == 0 {
			continue
		}
		for r := 0; r < n; r++ {
			bit := 1 << uint(r)
			if mask&bit != 0 {
				continue
			}
			conn, sels := m.conn[mask*n+r], m.connSel[mask*n+r]
			for ci := range set.cands {
				cands, err := o.joinCandidates(m.q, set.cands[ci], r, base[r], conn, sels, single[r])
				if err != nil {
					return nil, err
				}
				for _, c := range cands {
					sc.sets[mask|bit].add(c)
				}
			}
		}
	}

	full := &sc.sets[1<<uint(n)-1]
	if len(full.cands) == 0 {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	best := full.best()

	root := best.node
	if m.hasAgg {
		groups := o.groupEstimate(m.q, best.rows)
		root = &Node{
			Op:      OpHashAgg,
			GroupBy: m.q.GroupBy,
			Aggs:    m.q.Select,
			Left:    root,
			EstRows: groups,
			EstCost: root.EstCost + o.model.hashAggCost(best.rows, groups),
		}
	}
	return &Plan{Root: root, Cost: root.EstCost, Fingerprint: FingerprintOf(root)}, nil
}

// instantiateSingle substitutes parameter values into a fresh copy of one
// relation's template predicates (nil when the relation has none).
func instantiateSingle(tmpl []Predicate, params []float64) []Predicate {
	if len(tmpl) == 0 {
		return nil
	}
	out := make([]Predicate, len(tmpl))
	copy(out, tmpl)
	for i := range out {
		if out[i].Kind == PredCmpNum && out[i].ParamIdx >= 0 {
			out[i].Value = params[out[i].ParamIdx]
		}
	}
	return out
}
