package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/snapshot"
)

// encodePredictor returns the predictor section's bytes.
func encodePredictor(p *ApproxLSHHist) []byte {
	var w snapshot.Writer
	p.encode(&w)
	return w.Bytes()
}

// decodePredictorBytes decodes b as exactly one predictor section.
func decodePredictorBytes(b []byte) (*ApproxLSHHist, error) {
	r := snapshot.NewReader(b)
	p := decodePredictor(r)
	return p, r.End()
}

func TestApproxLSHHistEncodeDecodeIdenticalPredictions(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 3, Radius: 0.1, Gamma: 0.7, Seed: 13, NoiseElimination: true})
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 3000; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		plan := 0
		if x[0] > 0.5 {
			plan = 1
		}
		if x[1] > 0.7 {
			plan = 2
		}
		p.Insert(cluster.Sample{Point: x, Plan: plan, Cost: 5 + x[2]})
	}
	back, err := decodePredictorBytes(encodePredictor(p))
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalPoints() != p.TotalPoints() {
		t.Fatalf("TotalPoints = %d, want %d", back.TotalPoints(), p.TotalPoints())
	}
	if back.MemoryBytes() != p.MemoryBytes() {
		t.Errorf("MemoryBytes = %d, want %d", back.MemoryBytes(), p.MemoryBytes())
	}
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		pa, ca, oka := p.PredictWithCost(x)
		pb, cb, okb := back.PredictWithCost(x)
		if pa != pb || ca != cb || oka != okb {
			t.Fatalf("prediction diverged at %v: %+v/%v/%v vs %+v/%v/%v", x, pa, ca, oka, pb, cb, okb)
		}
	}
	// The restored predictor keeps learning.
	back.Insert(cluster.Sample{Point: []float64{0.5, 0.5, 0.5}, Plan: 1, Cost: 5})
	if back.TotalPoints() != p.TotalPoints()+1 {
		t.Error("restored predictor does not accept inserts")
	}
}

func TestApproxLSHHistDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodePredictorBytes([]byte{9, 9, 9}); err == nil {
		t.Error("garbage accepted")
	}
	p := MustNewApproxLSHHist(Config{Dims: 2, Seed: 1})
	p.Insert(cluster.Sample{Point: []float64{0.5, 0.5}, Plan: 1, Cost: 1})
	good := encodePredictor(p)
	for _, cut := range []int{1, 10, len(good) / 2} {
		if _, err := decodePredictorBytes(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestOnlineEncodeDecodeState(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5, NoiseElimination: true},
		Seed: 17,
	}, env)
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 600; i++ {
		mustStep(t, o, []float64{rng.Float64(), rng.Float64()})
	}
	var buf bytes.Buffer
	if err := o.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	o2 := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5, NoiseElimination: true},
		Seed: 17,
	}, env)
	if err := o2.DecodeState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if o2.Validated() != o.Validated() || o2.Predictor().TotalPoints() != o.Predictor().TotalPoints() {
		t.Errorf("counters: %d/%d vs %d/%d", o2.Validated(), o2.Predictor().TotalPoints(),
			o.Validated(), o.Predictor().TotalPoints())
	}
	// The restored driver must predict immediately (no warm-up), at the
	// same rate as the original driver continuing side by side.
	origHits, restoredHits := 0, 0
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if mustStep(t, o, x).CacheHit {
			origHits++
		}
		if mustStep(t, o2, x).CacheHit {
			restoredHits++
		}
	}
	if restoredHits < origHits-30 {
		t.Errorf("restored driver hit %d/300 vs original %d/300", restoredHits, origHits)
	}
	if restoredHits == 0 {
		t.Error("restored driver never hit; warm state lost")
	}
	// Dimension mismatch must be rejected.
	o3 := MustNewOnline(OnlineConfig{Core: Config{Dims: 3, Seed: 5}, Seed: 17}, env)
	if err := o3.DecodeState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
