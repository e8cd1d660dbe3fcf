package executor

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/tpch"
)

// Arena is the per-execution scratch of one CompiledPlan: tuple selection
// vectors, the join and group hash table, sort permutations, and
// aggregation accumulators. Arenas are checked out of the plan's sync.Pool
// for the duration of one Exec, so concurrent executions never share one;
// all slices retain their capacity across executions, which is what drives
// steady-state allocations toward zero.
//
// Join, sort and grouping scratch is shared by every operator in the plan
// rather than allocated per operator: execution is strictly sequential
// bottom-up, and a join's hash table or permutation is dead once the join
// has produced its output vectors, so the next join (or the root
// aggregation) can reuse the same buffers.
type Arena struct {
	// vecs holds one row-id vector per compile-time slot. A node's output
	// tuple t is the cross-section vecs[slot][t] over the node's slots (one
	// slot per base relation, late materialization).
	vecs [][]int32
	// inner is the index-nested-loop join's per-probe candidate vector.
	inner []int32

	// Hash join scratch: chained hash tables in insertion order. The table
	// entry packs head<<32|tail of the bucket's chain through next. Numeric
	// keys go through the open-addressed ht (a Go map spends most of the
	// probe in hashing and bucket dispatch); string keys keep a Go map.
	next []int32
	ht   u64HT
	htS  map[string]int64

	// Merge join scratch: one stable sort permutation and key cache per
	// side.
	sorter permSorter
	permA  []int32
	permB  []int32
	keysA  []float64
	keysB  []float64

	// Aggregation scratch: first-seen group keys and flat accumulators
	// (counts per group; sums/mins/maxs per group x spec). A single numeric
	// group column is looked up in ht on its raw float bits; string and
	// multi-column keys go through groups, keyed by the byte encoding in
	// keyBuf.
	groups    map[string]int32
	keyBuf    []byte
	groupKeys []Value
	counts    []float64
	sums      []float64
	mins      []float64
	maxs      []float64
}

// newArena sizes an arena for one compiled plan.
func newArena(cp *CompiledPlan) *Arena {
	ar := &Arena{vecs: make([][]int32, cp.nSlots)}
	if cp.needHTStr {
		ar.htS = make(map[string]int64)
	}
	if cp.agg != nil && len(cp.agg.groupCols) > 0 && !cp.agg.numKey() {
		ar.groups = make(map[string]int32)
	}
	return ar
}

// u64HT is the executor's one hash table: open addressing with linear
// probing over power-of-two slots, keyed on raw uint64 bits. Hash joins
// store a packed chain entry (head<<32|tail) under joinKey's bits, GROUP
// BY a group index under the key's float bits; -1 marks an empty slot.
type u64HT struct {
	keys  []uint64
	vals  []int64
	shift uint
}

// hashK scrambles the key bits; the high bits index the table.
const hashK = 0x9e3779b97f4a7c15

// reset sizes the table for n keys at load factor <= 1/2 and marks every
// slot empty. Capacity is retained across executions.
func (t *u64HT) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if size > cap(t.vals) {
		t.keys = make([]uint64, size)
		t.vals = make([]int64, size)
	} else {
		t.keys = t.keys[:size]
		t.vals = t.vals[:size]
	}
	for i := range t.vals {
		t.vals[i] = -1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slot returns the index of k's slot: the one holding k, or else the empty
// slot where k belongs.
func (t *u64HT) slot(k uint64) int {
	last := uint64(len(t.vals) - 1)
	j := (k * hashK) >> t.shift
	for t.vals[j] >= 0 && t.keys[j] != k {
		j = (j + 1) & last
	}
	return int(j)
}

// joinKey maps a numeric join key to its table key under float equality:
// -0 takes the bits of +0, and a NaN key, which equals nothing, reports
// false and is neither built nor probed.
func joinKey(f float64) (uint64, bool) {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f), f == f
}

// link appends build row i to the chain packed in e (-1: a new chain) and
// returns the updated entry.
func link(e int64, i int32, next []int32) int64 {
	next[i] = -1
	if e < 0 {
		return int64(i)<<32 | int64(i)
	}
	next[e&0xffffffff] = i
	return e&^0xffffffff | int64(i)
}

// chain ensures the hash-join chain array has n entries.
func (ar *Arena) chain(n int) []int32 {
	if cap(ar.next) < n {
		ar.next = make([]int32, n)
	}
	ar.next = ar.next[:n]
	return ar.next
}

// permKeys sizes a (perm, keys) pair for a sort of n tuples and fills perm
// with the identity permutation.
func permKeys(perm []int32, keys []float64, n int) ([]int32, []float64) {
	if cap(perm) < n {
		perm = make([]int32, n)
		keys = make([]float64, n)
	}
	perm, keys = perm[:n], keys[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm, keys
}

// permSorter stably sorts a permutation by the cached key of the tuple it
// points at. It is embedded in the arena so taking its address for
// sort.Stable never allocates.
type permSorter struct {
	perm []int32
	keys []float64
}

func (s *permSorter) Len() int           { return len(s.perm) }
func (s *permSorter) Less(i, j int) bool { return s.keys[s.perm[i]] < s.keys[s.perm[j]] }
func (s *permSorter) Swap(i, j int)      { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }

// stableSortPerm stably sorts perm by keys (both owned by the arena).
func (ar *Arena) stableSortPerm(perm []int32, keys []float64) {
	ar.sorter.perm, ar.sorter.keys = perm, keys
	sort.Stable(&ar.sorter)
	ar.sorter.perm, ar.sorter.keys = nil, nil
}

// resetAgg clears the aggregation scratch for a fresh grouping pass.
func (ar *Arena) resetAgg() {
	clear(ar.groups)
	ar.keyBuf = ar.keyBuf[:0]
	ar.groupKeys = ar.groupKeys[:0]
	ar.counts = ar.counts[:0]
	ar.sums = ar.sums[:0]
	ar.mins = ar.mins[:0]
	ar.maxs = ar.maxs[:0]
}

// addGroup appends a fresh accumulator set and returns its group index.
func (ar *Arena) addGroup(nS int) int32 {
	g := int32(len(ar.counts))
	ar.counts = append(ar.counts, 0)
	for s := 0; s < nS; s++ {
		ar.sums = append(ar.sums, 0)
		ar.mins = append(ar.mins, math.Inf(1))
		ar.maxs = append(ar.maxs, math.Inf(-1))
	}
	return g
}

// fold adds v to accumulator i's sum, min and max.
func (ar *Arena) fold(i int, v float64) {
	ar.sums[i] += v
	if v < ar.mins[i] {
		ar.mins[i] = v
	}
	if v > ar.maxs[i] {
		ar.maxs[i] = v
	}
}

// numGroup returns the group of a single numeric group key, adding one on
// first sight. ht holds the key's raw float bits, which is the row
// engine's byte encoding without the encoding; it is rebuilt from
// groupKeys, twice as large, whenever it would pass half full.
func (ar *Arena) numGroup(kv float64, nS int) int32 {
	ht := &ar.ht
	k := math.Float64bits(kv)
	j := ht.slot(k)
	if g := ht.vals[j]; g >= 0 {
		return int32(g)
	}
	g := ar.addGroup(nS)
	ar.groupKeys = append(ar.groupKeys, Value{Num: kv})
	if 2*len(ar.groupKeys) > len(ht.vals) {
		ht.reset(len(ar.groupKeys))
		for i, key := range ar.groupKeys {
			k := math.Float64bits(key.Num)
			j := ht.slot(k)
			ht.keys[j], ht.vals[j] = k, int64(i)
		}
		return g
	}
	ht.keys[j], ht.vals[j] = k, int64(g)
	return g
}

// typedEq compares one column value from each side of a join with full type
// awareness: string columns compare their strings, numeric columns their
// numbers, and a string/numeric mismatch is simply unequal (never a silent
// zero-collision).
func typedEq(ca *tpch.Column, ia int32, cb *tpch.Column, ib int32) bool {
	if ca.Kind == tpch.KindString || cb.Kind == tpch.KindString {
		if ca.Kind != cb.Kind {
			return false
		}
		return ca.Strs[ia] == cb.Strs[ib]
	}
	return ca.Nums[ia] == cb.Nums[ib]
}
