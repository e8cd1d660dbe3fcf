package core

// Fuzz coverage for the learner state stream — the one decoder
// (decodeOnlineState) behind DecodeState and NewReplicaOnline, which reads
// crash-shaped bytes during recovery and replica snapshot install: the
// predictor, counters, corrections and retune sections. The invariant is
// the recovery contract: decoding either returns a learner or an error; it
// never panics, never over-allocates on a corrupt declared count, and a
// stream it accepts re-encodes to bytes that decode again and re-encode
// identically.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// validLearnerState encodes a trained, re-tuned learner with corrections
// attached — a realistic seed whose mutations explore the deep decode
// paths (histograms, correction sites, warp knots, tuner counts, reservoir
// samples) rather than dying at the first section tag.
func validLearnerState(tb testing.TB) []byte {
	tb.Helper()
	o := newFuzzLearner()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 0.4, rng.Float64() * 0.4}
		if err := o.LearnValidated(x, quadrantPlan(x), quadrantCost(x)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		o.Corrections().Apply([]stats.Obs{{Site: 1, LogQ: math.Log(4)}, {Site: 3, LogQ: -0.5}}, nil)
	}
	if o.RetuneEpoch() == 0 {
		tb.Fatal("seed learner never re-tuned")
	}
	var buf bytes.Buffer
	if err := o.EncodeState(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func newFuzzLearner() *Online {
	o := MustNewOnline(OnlineConfig{
		Core: Config{
			Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5, NoiseElimination: true,
			RetuneEvery: 50, RetuneReservoir: 128,
		},
		Seed: 17,
	}, &quadrantEnv{})
	o.AttachCorrections(stats.NewCorrections(3, stats.CorrConfig{}))
	return o
}

func FuzzStateTailDecode(f *testing.F) {
	state := validLearnerState(f)
	f.Add(state)
	f.Add(state[:len(state)/2]) // truncated mid-stream
	f.Add(state[:8])            // first section header only
	f.Add([]byte{})             // empty
	f.Add([]byte("LSHHgarbage"))
	f.Add(append(append([]byte(nil), state...), state...)) // duplicated stream
	flipped := append([]byte(nil), state...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := NewReplicaOnline(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := o.EncodeState(&first); err != nil {
			t.Fatalf("re-encode of an accepted state failed: %v", err)
		}
		again, err := NewReplicaOnline(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded state did not decode: %v", err)
		}
		if err := again.EncodeState(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encode is not stable: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}

// TestRetuneTailRoundTrip pins the exactness half of the fuzz invariant on
// the canonical seed, through both entry points of the decoder: encode ->
// decode -> encode must be byte-identical (bit-identical histograms,
// counters, corrections, warps, tuner counts, reservoir and cursor).
func TestRetuneTailRoundTrip(t *testing.T) {
	state := validLearnerState(t)
	replica, err := NewReplicaOnline(bytes.NewReader(state))
	if err != nil {
		t.Fatal(err)
	}
	restored := newFuzzLearner()
	if err := restored.DecodeState(bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*Online{"NewReplicaOnline": replica, "DecodeState": restored} {
		if o.RetuneEpoch() == 0 {
			t.Fatalf("%s: no retune state restored", name)
		}
		var buf bytes.Buffer
		if err := o.EncodeState(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(state, buf.Bytes()) {
			t.Fatalf("%s: state round trip not byte-identical: %d vs %d bytes", name, len(state), buf.Len())
		}
	}
}
