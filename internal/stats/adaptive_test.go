package stats

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/snapshot"
)

// memLogger is an in-memory CorrLogger: it stamps sequences the way the
// WAL does and keeps every record for replay.
type memLogger struct {
	seq  uint64
	recs []CorrRecord
}

func (m *memLogger) LogCorrection(rec *CorrRecord) (uint64, error) {
	m.seq++
	r := *rec
	r.Seq = m.seq
	m.recs = append(m.recs, r)
	return m.seq, nil
}

func TestCorrectionsColdStartPassthrough(t *testing.T) {
	c := NewCorrections(2, CorrConfig{MinObs: 3})
	if f := c.Factor(1); f != 1 {
		t.Fatalf("cold factor = %v, want identity", f)
	}
	// Two observations: still below MinObs, still identity.
	c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}}, nil)
	c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}}, nil)
	if f := c.Factor(1); f != 1 {
		t.Fatalf("factor after 2 obs = %v, want cold identity (MinObs 3)", f)
	}
	if got := c.CorrectSel(1, 0.1); got != 0.1 {
		t.Fatalf("CorrectSel while cold = %v, want passthrough", got)
	}
	// Third observation crosses the threshold and publishes.
	c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}}, nil)
	if f := c.Factor(1); f <= 1 {
		t.Fatalf("factor after warmup = %v, want > 1 (estimates too low)", f)
	}
	if c.ActiveSites() != 1 {
		t.Fatalf("ActiveSites = %d, want 1", c.ActiveSites())
	}
	// Site 2 untouched: stays identity.
	if f := c.Factor(2); f != 1 {
		t.Fatalf("untouched site factor = %v, want identity", f)
	}
}

func TestCorrectionsClampAndBounds(t *testing.T) {
	c := NewCorrections(1, CorrConfig{})
	// Feed a huge consistent underestimate: the EWMA converges toward
	// ln(1000) but the published factor must clamp at 8.
	for i := 0; i < 50; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: math.Log(1000)}}, nil)
	}
	if f := c.Factor(1); f != 8 {
		t.Fatalf("factor = %v, want clamped to 8", f)
	}
	// Swing the other way: clamp at 1/8.
	for i := 0; i < 200; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: math.Log(1.0 / 1000)}}, nil)
	}
	if f := c.Factor(1); f != 1.0/8 {
		t.Fatalf("factor = %v, want clamped to 1/8", f)
	}
	// Corrected selectivity stays in [0, 1].
	if got := c.CorrectSel(1, 0.9); got < 0 || got > 1 {
		t.Fatalf("CorrectSel out of range: %v", got)
	}
	// Out-of-shape and non-finite observations are ignored, not applied.
	c.Apply([]Obs{{Site: 0, LogQ: 1}, {Site: 2, LogQ: 1}, {Site: 1, LogQ: math.NaN()}, {Site: 1, LogQ: math.Inf(1)}}, nil)
	_, _, sites := c.State()
	if sites[0].N != 250 {
		t.Fatalf("bad observations mutated state: n = %d, want 250", sites[0].N)
	}
}

func TestCorrectionsEpochAdvancesOnDrift(t *testing.T) {
	c := NewCorrections(1, CorrConfig{MinObs: 1, EpochLogDelta: math.Log(1.25)})
	if c.Epoch() != 0 {
		t.Fatal("fresh state has nonzero epoch")
	}
	// One big observation moves the smoothed correction well past the
	// threshold: epoch bumps and the reference re-anchors.
	if !c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}}, nil) {
		t.Fatal("large shift did not bump the epoch")
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.Epoch())
	}
	// Repeating the same observation keeps the EWMA where it is — no bump.
	if c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}}, nil) {
		t.Fatal("steady state bumped the epoch")
	}
	// A reversal large enough to cross the threshold bumps again.
	for i := 0; i < 20 && c.Epoch() == 1; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: -math.Log(4)}}, nil)
	}
	if c.Epoch() < 2 {
		t.Fatalf("epoch = %d after reversal, want >= 2", c.Epoch())
	}
}

func TestCorrectionsReplayReconstructsState(t *testing.T) {
	lg := &memLogger{}
	c := NewCorrections(3, CorrConfig{})
	for i := 0; i < 10; i++ {
		c.Apply([]Obs{
			{Site: 1, LogQ: math.Log(3)},
			{Site: 2, LogQ: -math.Log(2)},
		}, lg)
	}
	wantEpoch, wantSeq, wantSites := c.State()
	if wantSeq == 0 || len(lg.recs) == 0 {
		t.Fatal("nothing logged; test is vacuous")
	}

	// Replaying the log in sequence order into fresh state reconstructs
	// exactly the pre-crash factors (records carry absolute state).
	fresh := NewCorrections(3, CorrConfig{})
	for _, rec := range lg.recs {
		fresh.Replay(rec)
	}
	gotEpoch, gotSeq, gotSites := fresh.State()
	if gotEpoch != wantEpoch || gotSeq != wantSeq {
		t.Fatalf("replayed (epoch %d, seq %d), want (%d, %d)", gotEpoch, gotSeq, wantEpoch, wantSeq)
	}
	for i := range wantSites {
		if gotSites[i] != wantSites[i] {
			t.Fatalf("site %d replayed %+v, want %+v", i+1, gotSites[i], wantSites[i])
		}
	}
	for s := 1; s <= 3; s++ {
		if fresh.Factor(s) != c.Factor(s) {
			t.Fatalf("site %d factor %v, want %v", s, fresh.Factor(s), c.Factor(s))
		}
	}

	// Idempotence: replaying the same records again applies nothing.
	for _, rec := range lg.recs {
		if fresh.Replay(rec) {
			t.Fatalf("record seq %d re-applied; watermark not honored", rec.Seq)
		}
	}
	// Records for sites beyond the shape advance the watermark but skip.
	if fresh.Replay(CorrRecord{Seq: wantSeq + 1, Site: 99, LogC: 1, N: 5}) {
		t.Fatal("out-of-shape record applied")
	}
	if fresh.AppliedSeq() != wantSeq+1 {
		t.Fatalf("watermark %d, want %d", fresh.AppliedSeq(), wantSeq+1)
	}
}

func TestCorrectionsEncodeDecodeRoundTrip(t *testing.T) {
	c := NewCorrections(2, CorrConfig{})
	lg := &memLogger{}
	for i := 0; i < 8; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: math.Log(5)}, {Site: 2, LogQ: math.Log(0.5)}}, lg)
	}
	var w snapshot.Writer
	c.Encode(&w)
	decode := func(b []byte) (*Corrections, error) {
		r := snapshot.NewReader(b)
		dec := DecodeCorrections(r)
		return dec, r.End()
	}
	dec, err := decode(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch, wantSeq, wantSites := c.State()
	gotEpoch, gotSeq, gotSites := dec.State()
	if gotEpoch != wantEpoch || gotSeq != wantSeq {
		t.Fatalf("decoded (epoch %d, seq %d), want (%d, %d)", gotEpoch, gotSeq, wantEpoch, wantSeq)
	}
	for i := range wantSites {
		if gotSites[i] != wantSites[i] {
			t.Fatalf("site %d decoded %+v, want %+v", i+1, gotSites[i], wantSites[i])
		}
	}
	if dec.Factor(1) != c.Factor(1) || dec.Factor(2) != c.Factor(2) {
		t.Fatal("decoded factors differ")
	}

	// An empty stream has no corrections section: nil, nil.
	if dec, err := decode(nil); dec != nil || err != nil {
		t.Fatalf("empty stream decoded (%v, %v), want (nil, nil)", dec, err)
	}
	// Garbage is an error, not a silent cold start: a stream that is not a
	// corrections section, and a corrections section with a garbage body.
	if _, err := decode(make([]byte, 64)); err == nil {
		t.Fatal("garbage decoded without error")
	}
	garbage := append([]byte(nil), w.Bytes()[:4]...)
	garbage = append(garbage, 56, 0, 0, 0)
	garbage = append(garbage, bytes.Repeat([]byte{0xff}, 56)...)
	if _, err := decode(garbage); err == nil {
		t.Fatal("garbage section body decoded without error")
	}

	// Adopt with a matching shape adopts the state; a shape mismatch is an
	// error (the caller degrades to correction-cold).
	r2 := NewCorrections(2, CorrConfig{})
	if err := r2.Adopt(dec); err != nil {
		t.Fatal(err)
	}
	if r2.Factor(1) != c.Factor(1) {
		t.Fatal("Adopt did not adopt factors")
	}
	r3 := NewCorrections(5, CorrConfig{})
	if err := r3.Adopt(dec); err == nil {
		t.Fatal("shape mismatch restored without error")
	}
	// Adopting "no corrections" (an empty stream) resets warm state to cold.
	empty, _ := decode(nil)
	if err := r2.Adopt(empty); err != nil {
		t.Fatal(err)
	}
	if r2.Factor(1) != 1 || r2.Epoch() != 0 || r2.AppliedSeq() != 0 {
		t.Fatal("empty-stream restore did not reset to cold")
	}
}

func TestAdaptiveRegisterCorrectDrop(t *testing.T) {
	a := NewAdaptive(&Base{}, CorrConfig{MinObs: 1})
	// Unregistered template and non-positive sites are the identity.
	if got := a.Correct("q", 1, 0.5); got != 0.5 {
		t.Fatalf("unregistered Correct = %v, want identity", got)
	}
	if got := a.Correct("", 1, 0.5); got != 0.5 {
		t.Fatal("empty-template Correct not identity")
	}
	c := a.Register("q", 2)
	if a.Register("q", 7) != c {
		t.Fatal("Register is not idempotent")
	}
	if a.For("q") != c {
		t.Fatal("For does not return the registered state")
	}
	c.Apply([]Obs{{Site: 1, LogQ: math.Log(2)}}, nil)
	if got := a.Correct("q", 1, 0.1); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Correct = %v, want 0.2", got)
	}
	if got := a.Correct("q", 0, 0.1); got != 0.1 {
		t.Fatal("site 0 not identity")
	}
	if a.Epoch("q") != c.Epoch() {
		t.Fatal("Epoch does not delegate")
	}
	a.Drop("q")
	if a.For("q") != nil {
		t.Fatal("Drop did not remove the template")
	}
	if got := a.Correct("q", 1, 0.1); got != 0.1 {
		t.Fatal("dropped template still corrects")
	}
	// Re-registration starts cold.
	if a.Register("q", 2).Factor(1) != 1 {
		t.Fatal("re-registered state is not cold")
	}
}

func TestLogQAndQError(t *testing.T) {
	if got := LogQ(10, 40); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("LogQ(10, 40) = %v, want ln 4", got)
	}
	if got := QError(10, 40); math.Abs(got-4) > 1e-12 {
		t.Fatalf("QError(10, 40) = %v, want 4", got)
	}
	if got := QError(40, 10); math.Abs(got-4) > 1e-12 {
		t.Fatalf("QError is not symmetric: %v", got)
	}
	if got := QError(5, 5); got != 1 {
		t.Fatalf("QError of exact estimate = %v, want 1", got)
	}
	// Zero observed rows stay finite via the floor.
	if got := LogQ(10, 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("LogQ with zero observed not finite: %v", got)
	}
}
