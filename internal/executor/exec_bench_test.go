package executor

import (
	"testing"

	"repro/internal/queries"
)

// hotTemplates are the templates of the hot-exec serving workload.
var hotTemplates = []string{"Q0", "Q1", "Q2"}

// benchResult keeps benchmark results live so Exec cannot be optimized
// away.
var benchResult *Result

// hotPlan compiles the optimizer's plan for a standard template at the
// point (0.3, 0.3) and returns it with the parameter values of eight
// points around it, the shape of a cache hit's neighbourhood.
func hotPlan(tb testing.TB, name string) (*CompiledPlan, [][]float64) {
	tb.Helper()
	tm, err := queries.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := opt.InstanceAt(tm, []float64{0.3, 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := opt.OptimizeInstance(inst)
	if err != nil {
		tb.Fatal(err)
	}
	cp, err := exec.Compile(plan, tm.Query)
	if err != nil {
		tb.Fatal(err)
	}
	var vals [][]float64
	for i := 0; i < 8; i++ {
		d := 0.005 * float64(i-4)
		pInst, err := opt.InstanceAt(tm, []float64{0.3 + d, 0.3 - d})
		if err != nil {
			tb.Fatal(err)
		}
		vals = append(vals, pInst.Values)
	}
	return cp, vals
}

// BenchmarkCompiledExec is the compiled-execution layer of a cache hit:
// one warm Exec of the hot-exec templates' plans, scans through result
// materialization.
func BenchmarkCompiledExec(b *testing.B) {
	for _, name := range hotTemplates {
		b.Run(name, func(b *testing.B) {
			cp, vals := hotPlan(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cp.Exec(vals[i%len(vals)])
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
		})
	}
}

// TestCompiledExecAllocs holds a warm Exec to the result's own
// allocations (the Result, its Row headers and their Value backing
// array): scans, joins and aggregation run entirely in the pooled arena.
func TestCompiledExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	for _, name := range hotTemplates {
		cp, vals := hotPlan(t, name)
		for _, v := range vals {
			if _, err := cp.Exec(v); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := cp.Exec(vals[i%len(vals)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 3 {
			t.Errorf("%s: warm Exec = %v allocs/op, want <= 3", name, allocs)
		}
	}
}
