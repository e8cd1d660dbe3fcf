package executor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
)

// specialDB is the test database with NaN, -0 and +0 written over a few
// values of a filter column, hash-join keys on both sides, group-by keys
// and aggregated columns. Generated TPC-H data holds none of these, so
// without it no test could tell whether the compiled kernels keep the row
// engine's float semantics: a NaN fails every comparison but passes
// BETWEEN, equals no join key, and groups (like -0 and +0, which group
// apart but join together) by its bit pattern.
func specialDB(t *testing.T) *tpch.Database {
	t.Helper()
	db := tpch.MustGenerate(tpch.Config{Scale: 2000, Seed: 7})
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	special := []float64{nan, negZero, 0}
	// set overwrites rows at stride step (from first) with NaN, -0, +0 in
	// turn, and rebuilds the column's index if it has one.
	set := func(table, col string, first, step int) {
		tb := db.MustTable(table)
		nums := tb.MustColumn(col).Nums
		for i, k := first, 0; i < len(nums); i, k = i+step, k+1 {
			nums[i] = special[k%len(special)]
		}
		if tb.HasIndex(col) {
			if err := tb.BuildIndex(col); err != nil {
				t.Fatal(err)
			}
		}
	}
	set("lineitem", "l_shipdate", 5, 211)      // filter
	set("lineitem", "l_partkey", 11, 307)      // filter
	set("lineitem", "l_quantity", 3, 97)       // BETWEEN filter, AVG input
	set("lineitem", "l_extendedprice", 7, 401) // SUM, MIN, MAX input
	set("lineitem", "l_suppkey", 2, 53)        // hash-join probe key, group key
	set("supplier", "s_suppkey", 0, 2)         // hash-join build key, group key
	set("customer", "c_custkey", 1, 17)        // hash-join key
	set("orders", "o_custkey", 4, 41)          // hash-join key
	set("orders", "o_totalprice", 9, 263)      // SUM input
	return db
}

// TestCompiledMatchesTreeWalkSpecialValues runs both engines over the
// specialDB for Q0–Q2, a grouped template with MIN/MAX/AVG and a BETWEEN
// filter, and a two-column grouping (the byte-encoded key path). Each
// template is optimized at a grid of points, which yields seq- and
// index-scan plans and several join methods, and every plan is probed at
// several parameter points; the results must be bit-identical.
func TestCompiledMatchesTreeWalkSpecialValues(t *testing.T) {
	db := specialDB(t)
	ex := New(db)
	tms := make([]*optimizer.Template, 0, 5)
	for _, name := range []string{"Q0", "Q1", "Q2"} {
		tm, err := queries.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tms = append(tms, tm)
	}
	for i, sql := range []string{
		`SELECT l.l_suppkey, COUNT(*), SUM(l.l_extendedprice), MIN(l.l_extendedprice),
		        MAX(l.l_extendedprice), AVG(l.l_quantity)
		 FROM lineitem l
		 WHERE l.l_shipdate <= ? AND l.l_quantity BETWEEN 5 AND 45
		 GROUP BY l.l_suppkey`,
		`SELECT s.s_suppkey, l.l_extendedprice, COUNT(*), MIN(l.l_quantity)
		 FROM supplier s, lineitem l
		 WHERE l.l_suppkey = s.s_suppkey AND s.s_date <= ? AND l.l_partkey <= ?
		 GROUP BY s.s_suppkey, l.l_extendedprice`,
	} {
		q, err := parseSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := optimizer.NewTemplate(fmt.Sprintf("G%d", i), sql, q)
		if err != nil {
			t.Fatal(err)
		}
		tms = append(tms, tm)
	}
	grid := []float64{0.01, 0.2, 0.5, 0.9}
	sawIndexScan, sawNaN, sawNegZero := false, false, false
	for _, tm := range tms {
		seen := map[string]bool{}
		for _, a := range grid {
			for _, b := range grid {
				point := []float64{a, b}[:tm.Degree()]
				inst, err := opt.InstanceAt(tm, point)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := opt.OptimizeInstance(inst)
				if err != nil {
					t.Fatal(err)
				}
				if seen[plan.Fingerprint] {
					continue
				}
				seen[plan.Fingerprint] = true
				sawIndexScan = sawIndexScan || hasOp(plan.Root, optimizer.OpIndexScan)
				cp, err := ex.Compile(plan, tm.Query)
				if err != nil {
					t.Fatalf("%s at %v: Compile: %v", tm.Name, point, err)
				}
				for _, probe := range grid {
					pInst, err := opt.InstanceAt(tm, []float64{probe, 1 - probe}[:tm.Degree()])
					if err != nil {
						t.Fatal(err)
					}
					got, err := cp.Exec(pInst.Values)
					if err != nil {
						t.Fatal(err)
					}
					reinstantiate(plan.Root, tm, pInst.Values)
					want, err := ex.Run(plan)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, fmt.Sprintf("%s plan %v probe %v", tm.Name, plan.Fingerprint, pInst.Values), want, got)
					for _, row := range want.Rows {
						for _, v := range row {
							sawNaN = sawNaN || math.IsNaN(v.Num)
							sawNegZero = sawNegZero || math.Signbit(v.Num) && v.Num == 0
						}
					}
				}
			}
		}
	}
	if !sawIndexScan {
		t.Error("no template produced an index-scan plan; the grid no longer covers index scans")
	}
	if !sawNaN || !sawNegZero {
		t.Errorf("results held NaN %v, -0 %v: the special values no longer reach the output", sawNaN, sawNegZero)
	}
}

func hasOp(n *optimizer.Node, op optimizer.OpKind) bool {
	return n != nil && (n.Op == op || hasOp(n.Left, op) || hasOp(n.Right, op))
}
