package main

import (
	"math"
	"testing"

	"repro/internal/executor"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n     int
		q     float64
		value float64
		ok    bool
	}{
		{n: 19, ok: false},                   // the median has only 9 samples beyond it
		{n: 20, q: 0.5, value: 10, ok: true}, // exactly ten beyond the median
		{n: 99, q: 0.5, value: 50, ok: true},
		{n: 100, q: 0.9, value: 90, ok: true},
		{n: 999, q: 0.9, value: 900, ok: true},
		{n: 1000, q: 0.99, value: 990, ok: true},
		{n: 10000, q: 0.999, value: 9990, ok: true},
		{n: 100000, q: 0.9999, value: 99990, ok: true},
		{n: 1000000, q: 0.9999, value: 999900, ok: true}, // the ladder tops out
	}
	for _, c := range cases {
		q, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || q != c.q || v != c.value {
			t.Errorf("n=%d: got (p%g, %g, %v), want (p%g, %g, %v)", c.n, q*100, v, ok, c.q*100, c.value, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, q*100, beyond)
			}
		}
	}
}

func num(vs ...float64) executor.Row {
	r := make(executor.Row, len(vs))
	for i, v := range vs {
		r[i] = executor.Value{Num: v}
	}
	return r
}

func TestSameRows(t *testing.T) {
	base := &executor.Result{Rows: []executor.Row{num(1, 10), num(2, 20), num(3, 30)}}
	reordered := &executor.Result{Rows: []executor.Row{num(3, 30), num(1, 10), num(2, 20)}}
	if ok, why := sameRows(reordered, base); !ok {
		t.Fatalf("reordered rows rejected: %s", why)
	}
	ulp := &executor.Result{Rows: []executor.Row{num(1, 10), num(2, math.Nextafter(20, 21)), num(3, 30)}}
	if ok, why := sameRows(ulp, base); !ok {
		t.Fatalf("last-bit difference rejected: %s", why)
	}
	changed := &executor.Result{Rows: []executor.Row{num(3, 30), num(1, 10), num(2, 21)}}
	if ok, _ := sameRows(changed, base); ok {
		t.Fatal("changed cell accepted")
	}
	dup := &executor.Result{Rows: []executor.Row{num(1, 10), num(1, 10), num(3, 30)}}
	if ok, _ := sameRows(dup, base); ok {
		t.Fatal("different multiplicities accepted")
	}
	short := &executor.Result{Rows: []executor.Row{num(1, 10), num(2, 20)}}
	if ok, _ := sameRows(short, base); ok {
		t.Fatal("missing row accepted")
	}
	str := func(s string) executor.Row { return executor.Row{{Str: s, IsStr: true}} }
	a := &executor.Result{Rows: []executor.Row{str("x"), str("y")}}
	b := &executor.Result{Rows: []executor.Row{str("y"), str("z")}}
	if ok, _ := sameRows(a, b); ok {
		t.Fatal("changed string accepted")
	}
	if ok, why := sameRows(&executor.Result{}, nil); !ok {
		t.Fatalf("empty results differ: %s", why)
	}
}
