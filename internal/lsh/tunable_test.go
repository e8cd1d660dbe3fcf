package lsh

import (
	"math"
	"math/rand"
	"testing"
)

func TestIdentityWarp(t *testing.T) {
	w := IdentityWarp()
	if !w.IsIdentity() {
		t.Fatal("IdentityWarp is not identity")
	}
	for _, v := range []float64{0, 0.1, 0.25, 0.5, 0.7321, 1} {
		if got := w.Apply(v); math.Abs(got-v) > 1e-12 {
			t.Errorf("identity warp moved %v to %v", v, got)
		}
	}
	if w.Apply(-0.5) != 0 || w.Apply(1.5) != 1 {
		t.Error("warp does not clamp out-of-range inputs")
	}
}

// A NaN input clamps to the low edge instead of indexing the knots with
// int(NaN).
func TestWarpApplyNaN(t *testing.T) {
	if got := IdentityWarp().Apply(math.NaN()); got != 0 {
		t.Fatalf("Apply(NaN) = %v, want 0", got)
	}
}

func TestWarpFromKnotsValidation(t *testing.T) {
	good := IdentityWarp().Knots()
	if _, err := WarpFromKnots(good); err != nil {
		t.Fatalf("valid knots rejected: %v", err)
	}
	bad := [][]float64{
		nil,
		make([]float64, WarpBins), // wrong length
		func() []float64 { k := IdentityWarp().Knots(); k[3] = k[2] - 0.1; return k }(), // decreasing
		func() []float64 { k := IdentityWarp().Knots(); k[0] = 0.1; return k }(),        // bad endpoint
		func() []float64 { k := IdentityWarp().Knots(); k[5] = math.NaN(); return k }(), // NaN
		func() []float64 { k := IdentityWarp().Knots(); k[WarpBins] = 1.5; return k }(), // out of range
	}
	for i, k := range bad {
		if _, err := WarpFromKnots(k); err == nil {
			t.Errorf("bad knots %d accepted", i)
		}
	}
}

func TestWarpMonotone(t *testing.T) {
	tn := NewTuner(1, 1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		// Heavily skewed input: most mass near 0.1.
		v := math.Abs(rng.NormFloat64())*0.05 + 0.1
		if v > 1 {
			v = 1
		}
		tn.Observe(0, []float64{v})
	}
	w := tn.BuildWarps()[0][0]
	prev := -1.0
	for i := 0; i <= 1000; i++ {
		v := float64(i) / 1000
		got := w.Apply(v)
		if got < prev {
			t.Fatalf("warp not monotone at %v: %v < %v", v, got, prev)
		}
		if got < 0 || got > 1 {
			t.Fatalf("warp escapes [0,1] at %v: %v", v, got)
		}
		prev = got
	}
	if w.Apply(0) != 0 || w.Apply(1) != 1 {
		t.Error("warp endpoints moved")
	}
	// Round-trip through knots.
	w2, err := WarpFromKnots(w.Knots())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 100; i++ {
		v := float64(i) / 100
		if w.Apply(v) != w2.Apply(v) {
			t.Fatalf("knots round-trip changed warp at %v", v)
		}
	}
}

// TestWarpEqualizes: after warping, a skewed distribution should spread far
// more uniformly over the unit interval than before.
func TestWarpEqualizes(t *testing.T) {
	tn := NewTuner(1, 1)
	rng := rand.New(rand.NewSource(11))
	sample := make([]float64, 0, 8000)
	for i := 0; i < 8000; i++ {
		// Two tight modes at 0.2 and 0.25 — a worst case for a fixed grid.
		m := 0.2
		if rng.Intn(2) == 1 {
			m = 0.25
		}
		v := m + rng.NormFloat64()*0.01
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		sample = append(sample, v)
		tn.Observe(0, []float64{v})
	}
	w := tn.BuildWarps()[0][0]

	spread := func(vals []float64, warp *Warp) float64 {
		var hist [WarpBins]int
		for _, v := range vals {
			x := v
			if warp != nil {
				x = warp.Apply(v)
			}
			b := int(x * WarpBins)
			if b >= WarpBins {
				b = WarpBins - 1
			}
			hist[b]++
		}
		occupied := 0
		for _, c := range hist {
			if c > 0 {
				occupied++
			}
		}
		return float64(occupied) / WarpBins
	}
	before, after := spread(sample, nil), spread(sample, w)
	if after <= before {
		t.Fatalf("warp did not spread mass: occupancy before %.2f, after %.2f", before, after)
	}
}

// TestTunerDeterministic: identical observation streams build bit-identical
// warps — the property replica parity and crash recovery depend on.
func TestTunerDeterministic(t *testing.T) {
	build := func() [][]*Warp {
		tn := NewTuner(3, 2)
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 2000; i++ {
			p := []float64{rng.Float64() * 0.4, 0.6 + rng.Float64()*0.3}
			for tr := 0; tr < 3; tr++ {
				tn.Observe(tr, p)
			}
		}
		return tn.BuildWarps()
	}
	a, b := build(), build()
	for tr := range a {
		for ax := range a[tr] {
			ka, kb := a[tr][ax].Knots(), b[tr][ax].Knots()
			for i := range ka {
				if ka[i] != kb[i] {
					t.Fatalf("transform %d axis %d knot %d differs: %v vs %v", tr, ax, i, ka[i], kb[i])
				}
			}
		}
	}
}

func TestTunerCountsRoundTrip(t *testing.T) {
	tn := NewTuner(2, 2)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		tn.Observe(0, p)
		tn.Observe(1, p)
	}
	tn.Decay()
	flat, obs := tn.Counts(), tn.Observed()

	tn2 := NewTuner(2, 2)
	if err := tn2.SetCounts(flat, obs); err != nil {
		t.Fatal(err)
	}
	if tn2.Observed() != obs {
		t.Fatalf("observed %d, want %d", tn2.Observed(), obs)
	}
	wa, wb := tn.BuildWarps(), tn2.BuildWarps()
	for tr := range wa {
		for ax := range wa[tr] {
			ka, kb := wa[tr][ax].Knots(), wb[tr][ax].Knots()
			for i := range ka {
				if ka[i] != kb[i] {
					t.Fatalf("restored tuner builds different warp at [%d][%d][%d]", tr, ax, i)
				}
			}
		}
	}
	if err := tn2.SetCounts(flat[:3], obs); err == nil {
		t.Error("short counts vector accepted")
	}
}
