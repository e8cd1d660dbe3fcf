package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/snapshot"
)

// OpKind identifies a physical operator.
type OpKind int

const (
	OpSeqScan OpKind = iota
	OpIndexScan
	OpHashJoin
	OpMergeJoin
	OpIndexNLJoin
	OpNLJoin
	OpHashAgg
)

func (op OpKind) String() string {
	switch op {
	case OpSeqScan:
		return "SeqScan"
	case OpIndexScan:
		return "IndexScan"
	case OpHashJoin:
		return "HashJoin"
	case OpMergeJoin:
		return "MergeJoin"
	case OpIndexNLJoin:
		return "IndexNLJoin"
	case OpNLJoin:
		return "NLJoin"
	case OpHashAgg:
		return "HashAgg"
	}
	return "?"
}

// Node is a physical plan operator. Leaf nodes are scans; joins are binary
// with the left child an arbitrary subplan and the right child always a
// base-relation scan (left-deep plans); HashAgg is unary via Left.
type Node struct {
	Op OpKind

	// Scans.
	Table    string
	Alias    string
	IndexCol string  // OpIndexScan: the indexed column driving the scan
	IndexLo  float64 // instantiated scan bounds
	IndexHi  float64
	// Filters holds the residual predicates evaluated at this node, with
	// parameter placeholders already instantiated.
	Filters []Predicate

	// Joins: the equi-join columns on each side. For OpIndexNLJoin the
	// right child is an index scan probed at LeftCol's value per outer row.
	LeftCol  ColRef
	RightCol ColRef
	// BuildLeft is set on hash joins that build the hash table on the left
	// input and probe with the right (default is build-on-right).
	BuildLeft bool

	Left  *Node
	Right *Node

	// Aggregation.
	GroupBy []ColRef
	Aggs    []SelectItem

	// Optimizer estimates at the chosen parameter values.
	EstRows float64
	EstCost float64 // cumulative cost of the subtree

	// SortedOn tracks the column the node's output is ordered by (from an
	// index scan or merge join), enabling sort-free merge joins upstream.
	SortedOn ColRef

	// Plan lineage back to template predicate sites, for mapping observed
	// operator cardinalities to the estimates that produced them. IndexSite
	// is the site of the driving sargable predicate of an index scan;
	// JoinSite is the site of the driving equi-join predicate of a join.
	// 0 means no attributable site. Excluded from fingerprints: lineage
	// annotates a plan, it does not distinguish plans.
	IndexSite int
	JoinSite  int
}

// Plan is a complete physical plan for one query instance.
type Plan struct {
	Root *Node
	// Cost is the optimizer's estimated cost at the instantiated parameter
	// values (the execution-cost metric of Definition 3).
	Cost float64
	// Fingerprint canonically identifies the plan's structure — operators,
	// join order, access paths and join methods — excluding instantiated
	// literal values, so instances that receive the same strategy share a
	// fingerprint (the plan identity of the plan space).
	Fingerprint string
}

// Fingerprint computes the canonical structure string of a subtree.
func (n *Node) fingerprint(b *strings.Builder) {
	switch n.Op {
	case OpSeqScan:
		fmt.Fprintf(b, "Seq(%s)", n.Alias)
	case OpIndexScan:
		fmt.Fprintf(b, "Idx(%s.%s)", n.Alias, n.IndexCol)
	case OpHashJoin:
		side := ""
		if n.BuildLeft {
			side = "^"
		}
		fmt.Fprintf(b, "HJ%s[%s=%s](", side, n.LeftCol, n.RightCol)
		n.Left.fingerprint(b)
		b.WriteString(",")
		n.Right.fingerprint(b)
		b.WriteString(")")
	case OpMergeJoin:
		fmt.Fprintf(b, "MJ[%s=%s](", n.LeftCol, n.RightCol)
		n.Left.fingerprint(b)
		b.WriteString(",")
		n.Right.fingerprint(b)
		b.WriteString(")")
	case OpIndexNLJoin:
		fmt.Fprintf(b, "INL[%s=%s](", n.LeftCol, n.RightCol)
		n.Left.fingerprint(b)
		b.WriteString(",")
		n.Right.fingerprint(b)
		b.WriteString(")")
	case OpNLJoin:
		b.WriteString("NL(")
		n.Left.fingerprint(b)
		b.WriteString(",")
		n.Right.fingerprint(b)
		b.WriteString(")")
	case OpHashAgg:
		cols := make([]string, len(n.GroupBy))
		for i, c := range n.GroupBy {
			cols[i] = c.String()
		}
		sort.Strings(cols)
		fmt.Fprintf(b, "Agg[%s](", strings.Join(cols, ","))
		n.Left.fingerprint(b)
		b.WriteString(")")
	}
}

// FingerprintOf returns the canonical structure string for a plan tree.
func FingerprintOf(root *Node) string {
	var b strings.Builder
	root.fingerprint(&b)
	return b.String()
}

// maxTreeDepth bounds a decoded plan tree's depth (a left-deep plan over
// every table of a query is far shallower), so corrupt input cannot recurse
// without limit.
const maxTreeDepth = 64

// EncodeTree encodes a plan tree for the system state codec
// (internal/snapshot): every Node field in declaration order, children
// last, each behind a presence flag. A Node field missing here fails the
// save/restore round trip tests, which compare trees with reflect.DeepEqual.
func EncodeTree(root *Node) []byte {
	var w snapshot.Writer
	root.encode(&w)
	return w.Bytes()
}

func (n *Node) encode(w *snapshot.Writer) {
	w.I64(int64(n.Op))
	w.String(n.Table)
	w.String(n.Alias)
	w.String(n.IndexCol)
	w.F64s(n.IndexLo, n.IndexHi)
	w.U32(uint32(len(n.Filters)))
	for _, p := range n.Filters {
		w.I64(int64(p.Kind))
		encodeCol(w, p.Col)
		w.I64(int64(p.Op))
		w.F64s(p.Value, p.Lo, p.Hi)
		w.I64(int64(p.ParamIdx))
		w.String(p.StrValue)
		encodeCol(w, p.RightCol)
		w.I64(int64(p.Site))
	}
	encodeCol(w, n.LeftCol)
	encodeCol(w, n.RightCol)
	w.Bool(n.BuildLeft)
	w.U32(uint32(len(n.GroupBy)))
	for _, c := range n.GroupBy {
		encodeCol(w, c)
	}
	w.U32(uint32(len(n.Aggs)))
	for _, a := range n.Aggs {
		w.I64(int64(a.Agg))
		encodeCol(w, a.Col)
	}
	w.F64s(n.EstRows, n.EstCost)
	encodeCol(w, n.SortedOn)
	w.I64(int64(n.IndexSite))
	w.I64(int64(n.JoinSite))
	for _, child := range []*Node{n.Left, n.Right} {
		w.Bool(child != nil)
		if child != nil {
			child.encode(w)
		}
	}
}

func encodeCol(w *snapshot.Writer, c ColRef) {
	w.String(c.Alias)
	w.String(c.Column)
}

// DecodeTree decodes a tree written by EncodeTree. It rejects a node whose
// children do not fit its operator (scans are leaves, joins binary,
// HashAgg unary), so a decoded tree is safe to fingerprint and compile.
func DecodeTree(b []byte) (*Node, error) {
	r := snapshot.NewReader(b)
	root := decodeNode(r, 0)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("optimizer: plan tree: %w", err)
	}
	return root, nil
}

func decodeNode(r *snapshot.Reader, depth int) *Node {
	if depth > maxTreeDepth {
		r.Failf("optimizer: plan tree deeper than %d", maxTreeDepth)
		return nil
	}
	n := &Node{
		Op: OpKind(r.I64()), Table: r.String(), Alias: r.String(), IndexCol: r.String(),
		IndexLo: r.F64(), IndexHi: r.F64(),
	}
	for k := r.Count(math.MaxInt32); len(n.Filters) < k; {
		n.Filters = append(n.Filters, Predicate{
			Kind: PredKind(r.I64()), Col: decodeCol(r), Op: CmpOp(r.I64()),
			Value: r.F64(), Lo: r.F64(), Hi: r.F64(), ParamIdx: int(r.I64()),
			StrValue: r.String(), RightCol: decodeCol(r), Site: int(r.I64()),
		})
	}
	n.LeftCol, n.RightCol, n.BuildLeft = decodeCol(r), decodeCol(r), r.Bool()
	for k := r.Count(math.MaxInt32); len(n.GroupBy) < k; {
		n.GroupBy = append(n.GroupBy, decodeCol(r))
	}
	for k := r.Count(math.MaxInt32); len(n.Aggs) < k; {
		n.Aggs = append(n.Aggs, SelectItem{Agg: AggFunc(r.I64()), Col: decodeCol(r)})
	}
	n.EstRows, n.EstCost, n.SortedOn = r.F64(), r.F64(), decodeCol(r)
	n.IndexSite, n.JoinSite = int(r.I64()), int(r.I64())
	for _, child := range []**Node{&n.Left, &n.Right} {
		if r.Bool() {
			*child = decodeNode(r, depth+1)
		}
	}
	join := n.Op >= OpHashJoin && n.Op <= OpNLJoin
	if n.Op < OpSeqScan || n.Op > OpHashAgg || (n.Left != nil) != (n.Op > OpIndexScan) || (n.Right != nil) != join {
		r.Failf("optimizer: malformed plan node (op %d)", n.Op)
	}
	return n
}

func decodeCol(r *snapshot.Reader) ColRef {
	return ColRef{Alias: r.String(), Column: r.String()}
}

// String renders the plan tree with estimates, one operator per line.
func (p *Plan) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Op {
		case OpSeqScan:
			fmt.Fprintf(&b, "SeqScan %s", n.Alias)
		case OpIndexScan:
			fmt.Fprintf(&b, "IndexScan %s on %s [%g, %g]", n.Alias, n.IndexCol, n.IndexLo, n.IndexHi)
		case OpHashJoin:
			side := "build=right"
			if n.BuildLeft {
				side = "build=left"
			}
			fmt.Fprintf(&b, "HashJoin %s = %s (%s)", n.LeftCol, n.RightCol, side)
		case OpMergeJoin:
			fmt.Fprintf(&b, "MergeJoin %s = %s", n.LeftCol, n.RightCol)
		case OpIndexNLJoin:
			fmt.Fprintf(&b, "IndexNLJoin %s = %s", n.LeftCol, n.RightCol)
		case OpNLJoin:
			b.WriteString("NestedLoopJoin")
		case OpHashAgg:
			fmt.Fprintf(&b, "HashAgg groups=%v", n.GroupBy)
		}
		if len(n.Filters) > 0 {
			fmt.Fprintf(&b, " filter=%v", n.Filters)
		}
		fmt.Fprintf(&b, "  (rows=%.1f cost=%.1f)\n", n.EstRows, n.EstCost)
		if n.Left != nil {
			walk(n.Left, depth+1)
		}
		if n.Right != nil {
			walk(n.Right, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}

// Registry interns plan fingerprints to small dense integer identifiers —
// the plan labels P_i used throughout the clustering framework. It is safe
// for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	ids   map[string]int
	names []string
}

// NewRegistry returns an empty plan registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]int)}
}

// ID returns the dense identifier for a fingerprint, assigning the next
// identifier on first sight.
func (r *Registry) ID(fingerprint string) int {
	r.mu.RLock()
	id, ok := r.ids[fingerprint]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[fingerprint]; ok {
		return id
	}
	id = len(r.names)
	r.ids[fingerprint] = id
	r.names = append(r.names, fingerprint)
	return id
}

// Lookup returns the identifier for a fingerprint without assigning one.
func (r *Registry) Lookup(fingerprint string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.ids[fingerprint]
	return id, ok
}

// Fingerprint returns the fingerprint of an identifier, or "" if unknown.
func (r *Registry) Fingerprint(id int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id < 0 || id >= len(r.names) {
		return ""
	}
	return r.names[id]
}

// Fingerprints returns every fingerprint, indexed by identifier.
func (r *Registry) Fingerprints() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

// Count returns the number of distinct plans seen.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.names)
}
