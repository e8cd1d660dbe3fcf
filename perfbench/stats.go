package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/executor"
)

// tailLadder lists the percentiles a latency report may quote, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// percentile returns the q-quantile of sorted (nearest rank), 0 when empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it, and its value; ok is false when even the
// median lacks ten samples beyond it.
func tailPercentile(sorted []float64) (q, v float64, ok bool) {
	n := float64(len(sorted))
	for i := len(tailLadder) - 1; i >= 0; i-- {
		// Round before comparing: 1-0.999 is not exactly 0.001 in binary.
		if math.Round(n*(1-tailLadder[i])*1e6)/1e6 >= 10 {
			return tailLadder[i], percentile(sorted, tailLadder[i]), true
		}
	}
	return 0, 0, false
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// relTol is the numeric tolerance of the answer check: aggregates summed in
// a different order may differ in the last bits.
const relTol = 1e-9

// sameRows reports whether two results hold the same rows as multisets,
// comparing numbers with a relative tolerance. On a mismatch it returns a
// short reason.
func sameRows(got, want *executor.Result) (bool, string) {
	g, w := rowsOf(got), rowsOf(want)
	if len(g) != len(w) {
		return false, fmt.Sprintf("%d rows, want %d", len(g), len(w))
	}
	sortRows(g)
	sortRows(w)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return false, fmt.Sprintf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			if !sameValue(g[i][j], w[i][j]) {
				return false, fmt.Sprintf("row %d column %d is %v, want %v", i, j, g[i][j], w[i][j])
			}
		}
	}
	return true, ""
}

func rowsOf(r *executor.Result) []executor.Row {
	if r == nil {
		return nil
	}
	return append([]executor.Row(nil), r.Rows...)
}

func sameValue(a, b executor.Value) bool {
	if a.IsStr || b.IsStr {
		return a.IsStr == b.IsStr && a.Str == b.Str
	}
	if a.Num == b.Num || (math.IsNaN(a.Num) && math.IsNaN(b.Num)) {
		return true
	}
	return math.Abs(a.Num-b.Num) <= relTol*math.Max(math.Abs(a.Num), math.Abs(b.Num))
}

// sortRows orders rows by their columns so multisets can be compared row by
// row. Numbers compare by value, so rows equal within tolerance sort next
// to each other unless a tie elsewhere separates them.
func sortRows(rows []executor.Row) {
	sort.SliceStable(rows, func(i, j int) bool { return lessRow(rows[i], rows[j]) })
}

func lessRow(a, b executor.Row) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		x, y := a[k], b[k]
		if x.IsStr != y.IsStr {
			return !x.IsStr
		}
		if x.IsStr {
			if c := strings.Compare(x.Str, y.Str); c != 0 {
				return c < 0
			}
			continue
		}
		if x.Num != y.Num {
			return x.Num < y.Num
		}
	}
	return len(a) < len(b)
}
