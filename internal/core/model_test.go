package core

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

// trainedPredictor builds a live predictor over the quadrant plan space.
func trainedPredictor(t *testing.T, n int) *ApproxLSHHist {
	t.Helper()
	p := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.05, Gamma: 0.7, NoiseElimination: true, Seed: 5})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		p.Insert(cluster.Sample{Point: x, Plan: quadrantPlan(x), Cost: quadrantCost(x)})
	}
	return p
}

// The frozen Model and the live predictor instantiate the same generic
// predict core, so for identical state they must answer identically — the
// lock-free serving path is not allowed to change a single prediction.
func TestModelPredictMatchesLive(t *testing.T) {
	p := trainedPredictor(t, 800)
	m := p.Freeze()
	sc := NewPredictScratch(p.Config())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		lp, lc, lok := p.PredictWithCost(x)
		mp, mc, mok := m.PredictWithCost(x, sc)
		if lok != mok || lp != mp || lc != mc {
			t.Fatalf("point %v: live (%+v, %v, %v) != model (%+v, %v, %v)",
				x, lp, lc, lok, mp, mc, mok)
		}
	}
	if m.TotalPoints() != p.TotalPoints() || m.MemoryBytes() != p.MemoryBytes() {
		t.Errorf("model accounting (%d pts, %d B) != live (%d pts, %d B)",
			m.TotalPoints(), m.MemoryBytes(), p.TotalPoints(), p.MemoryBytes())
	}
}

// Freeze is copy-on-write: an unchanged predictor returns the identical
// *Model, and after a mutation only the histograms the insert actually
// touched are re-frozen — every other (transform, plan) histogram pointer
// is shared with the previous snapshot.
func TestFreezeCopyOnWrite(t *testing.T) {
	p := trainedPredictor(t, 800)
	m1 := p.Freeze()
	if m2 := p.Freeze(); m2 != m1 {
		t.Fatal("Freeze without mutation rebuilt the model")
	}

	// Mutate exactly one plan's histograms (plan 0 in every transform, plus
	// the marginals, which every insert touches).
	p.Insert(cluster.Sample{Point: []float64{0.1, 0.1}, Plan: 0, Cost: 1})
	m3 := p.Freeze()
	if m3 == m1 {
		t.Fatal("Freeze after mutation returned the stale model")
	}
	if m3.Version() <= m1.Version() {
		t.Errorf("version did not advance: %d -> %d", m1.Version(), m3.Version())
	}
	for i := range m3.hists {
		for plan, h := range m3.hists[i] {
			old, ok := m1.hists[i][plan]
			if !ok {
				continue
			}
			if plan == 0 && h == old {
				t.Errorf("transform %d: touched plan 0 histogram was not re-frozen", i)
			}
			if plan != 0 && h != old {
				t.Errorf("transform %d plan %d: untouched histogram was copied, not shared", i, plan)
			}
		}
		if m3.marginals[i] == m1.marginals[i] {
			t.Errorf("transform %d: marginal absorbed the insert but was not re-frozen", i)
		}
	}
}

// A drift reset between a feedback point's creation and its application
// invalidates the point: the histograms it was measured against are gone.
// ApplyBatch must drop it (counted, not silent) instead of polluting the
// fresh epoch.
func TestApplyStaleEpochDrop(t *testing.T) {
	o, err := NewOnline(OnlineConfig{Core: Config{Dims: 2, Seed: 1}, Seed: 2}, &quadrantEnv{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := o.ValidatedFeedback([]float64{0.3, 0.4}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	stale := fb
	stale.Epoch--
	if applied, _, _ := o.ApplyBatch([]Feedback{stale}); applied != 0 {
		t.Error("ApplyBatch accepted feedback from an older epoch")
	}
	if got := o.StaleFeedbackDrops(); got != 1 {
		t.Errorf("StaleFeedbackDrops = %d, want 1", got)
	}
	if got := o.Validated(); got != 0 {
		t.Errorf("Validated = %d after stale drop, want 0", got)
	}

	// The same point at the current epoch applies and republishes.
	v0 := o.Model().Version()
	if applied, _, _ := o.ApplyBatch([]Feedback{fb}); applied != 1 {
		t.Fatal("ApplyBatch rejected current-epoch feedback")
	}
	if got := o.Validated(); got != 1 {
		t.Errorf("Validated = %d, want 1", got)
	}
	if o.Model().Version() <= v0 {
		t.Error("ApplyBatch did not publish a new model snapshot")
	}
	if o.Publishes() == 0 {
		t.Error("publish counter did not advance")
	}
}
