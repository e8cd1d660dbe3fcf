package replica

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lsh"
	"repro/internal/netproto"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/wal"
)

// installedFromSource returns a replica state holding src's current
// snapshot, after n fed points.
func installedFromSource(t *testing.T, src *fakeSource, n int) (*State, uint64) {
	t.Helper()
	src.feed(n)
	snap, err := src.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(nil)
	if err := st.Install(snap); err != nil {
		t.Fatal(err)
	}
	return st, snap.BaseSeq
}

// identityKnots returns the flat knots of a t×s grid of identity warps.
func identityKnots(t, s int) []float64 {
	flat := make([]float64, 0, t*s*(lsh.WarpBins+1))
	for i := 0; i < t*s; i++ {
		for k := 0; k <= lsh.WarpBins; k++ {
			flat = append(flat, float64(k)/lsh.WarpBins)
		}
	}
	return flat
}

// A shipped feedback record whose point has the wrong dimensionality is
// stale: the replica counts it skipped instead of inserting it (which
// panics in the predictor and would kill the session goroutine).
func TestApplyRecordsWrongDimsFeedbackIsSkipped(t *testing.T) {
	st, base := installedFromSource(t, newFakeSource(t, 7), 30)
	applied, skipped := st.ApplyRecords([]wal.Record{
		{Template: "Q1", Seq: base + 1, Plan: 1, Cost: 1, Point: []float64{0.5}},
	})
	if applied != 0 || skipped != 1 {
		t.Fatalf("ApplyRecords = %d applied, %d skipped; want 0/1", applied, skipped)
	}
	if got := st.ReceivedSeq(); got != base+1 {
		t.Fatalf("ReceivedSeq = %d, want %d", got, base+1)
	}
	if res := st.PredictRPC(netproto.PredictRequest{Template: "Q1", Point: []float64{0.3, 0.3}}); res.Status == netproto.StatusBadRequest {
		t.Fatalf("replica stopped serving: %+v", res)
	}
}

// A shipped retune record whose warp grid does not match the predictor's
// transforms × output dimensions is stale. Installing it would make the
// next insert index past the grid.
func TestApplyRecordsWrongShapeRetuneIsSkipped(t *testing.T) {
	st, base := installedFromSource(t, newFakeSource(t, 9), 30)
	applied, skipped := st.ApplyRecords([]wal.Record{
		{Kind: wal.RecordRetune, Template: "Q1", Seq: base + 1, RetuneEpoch: 1,
			WarpT: 1, WarpS: 1, WarpK: lsh.WarpBins + 1, Warps: identityKnots(1, 1)},
		{Template: "Q1", Seq: base + 2, Plan: 1, Cost: 1, Point: []float64{0.7, 0.2}},
	})
	if applied != 1 || skipped != 1 {
		t.Fatalf("ApplyRecords = %d applied, %d skipped; want 1/1", applied, skipped)
	}
	if got := st.RetuneEpoch("Q1"); got != 0 {
		t.Fatalf("RetuneEpoch = %d after a wrong-shape retune record, want 0", got)
	}
}

// fuzzSnapshot is a one-template snapshot with tunable LSH armed (so a
// well-shaped retune record rebuilds from a reservoir) and corrections
// attached (so correction records reach Corrections.Replay).
func fuzzSnapshot(f testing.TB) *netproto.Snapshot {
	o := core.MustNewOnline(core.OnlineConfig{
		Core: core.Config{
			Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5, NoiseElimination: true,
			RetuneEvery: 40, RetuneReservoir: 64,
		},
		Seed: 17,
	}, stubEnv{})
	o.AttachCorrections(stats.NewCorrections(3, stats.CorrConfig{}))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := o.LearnValidated(x, int(quadrantPlan(x)), 1+x[0]+x[1]); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := o.EncodeState(&buf); err != nil {
		f.Fatal(err)
	}
	st := snapshot.State{
		Templates:    []snapshot.Template{{Name: "Q1", Learner: buf.Bytes()}},
		Fingerprints: testFingerprints,
	}
	return &netproto.Snapshot{Epoch: 1, State: st.Encode()}
}

// Once the installed template has re-tuned, a NaN coordinate used to index
// the warp knots out of range. The replica's PredictRPC answers it as a bad
// request, like the leader's.
func TestReplicaPredictRPCRejectsNonFinitePoint(t *testing.T) {
	st := NewState(nil)
	if err := st.Install(fuzzSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if st.RetuneEpoch("Q1") == 0 {
		t.Fatal("installed learner never re-tuned; test is vacuous")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := st.PredictRPC(netproto.PredictRequest{ID: 7, Template: "Q1", Point: []float64{v, 0.3}})
		if res.Status != netproto.StatusBadRequest || res.ID != 7 {
			t.Fatalf("PredictRPC at coordinate %v = %+v, want StatusBadRequest", v, res)
		}
	}
	if res := st.PredictRPC(netproto.PredictRequest{Template: "Q1", Point: []float64{0.3, 0.3}}); res.Status == netproto.StatusBadRequest {
		t.Fatalf("finite point rejected: %+v", res)
	}
}

// FuzzApplyRecords ships one arbitrary record, followed by a well-formed
// feedback record, into an installed replica state. Whatever the record —
// any kind, sequence, epoch, point shape, warp grid or correction site —
// applying must not panic, the state must keep serving predictions, and
// the received sequence must never move backwards.
func FuzzApplyRecords(f *testing.F) {
	snap := fuzzSnapshot(f)
	f.Add(uint8(wal.RecordFeedback), uint64(500), int64(0), uint8(2), 0.3, 0.6, uint8(5), uint8(2), uint8(17), 0.0, uint32(1))
	f.Add(uint8(wal.RecordFeedback), uint64(500), int64(0), uint8(1), 0.5, 0.5, uint8(0), uint8(0), uint8(0), 0.0, uint32(0))
	f.Add(uint8(wal.RecordFeedback), uint64(500), int64(3), uint8(2), math.NaN(), math.Inf(1), uint8(0), uint8(0), uint8(0), 0.0, uint32(0))
	f.Add(uint8(wal.RecordRetune), uint64(500), int64(0), uint8(0), 0.0, 0.0, uint8(5), uint8(2), uint8(17), 0.0, uint32(0))
	f.Add(uint8(wal.RecordRetune), uint64(500), int64(0), uint8(0), 0.0, 0.0, uint8(1), uint8(1), uint8(17), 0.0, uint32(0))
	f.Add(uint8(wal.RecordRetune), uint64(500), int64(0), uint8(0), 0.0, 0.0, uint8(5), uint8(2), uint8(17), 1.5, uint32(0))
	f.Add(uint8(wal.RecordCorrection), uint64(500), int64(0), uint8(0), 0.2, 0.0, uint8(0), uint8(0), uint8(0), 0.0, uint32(2))
	f.Add(uint8(wal.RecordCorrection), uint64(1), int64(0), uint8(0), 0.2, 0.0, uint8(0), uint8(0), uint8(0), 0.0, uint32(99))
	f.Add(uint8(9), uint64(0), int64(-1), uint8(0), 0.0, 0.0, uint8(0), uint8(0), uint8(0), 0.0, uint32(0))
	f.Fuzz(func(t *testing.T, kind uint8, seq uint64, epoch int64, dims uint8, v0, v1 float64,
		warpT, warpS, warpK uint8, knot float64, site uint32) {
		st := NewState(nil)
		if err := st.Install(snap); err != nil {
			t.Fatal(err)
		}
		point := make([]float64, int(dims)%8)
		for i := range point {
			point[i] = v0
			if i%2 == 1 {
				point[i] = v1
			}
		}
		t2, s2, k2 := int(warpT)%8, int(warpS)%4, int(warpK)%24
		flat := make([]float64, t2*s2*k2)
		for i := range flat {
			flat[i] = float64(i%k2) / float64(max(k2-1, 1))
		}
		if knot != 0 && len(flat) > 0 {
			flat[len(flat)/2] = knot
		}
		rec := wal.Record{
			Kind: kind, Seq: seq, Epoch: epoch, Template: "Q1",
			Plan: 1, Cost: 1, Point: point,
			CorrEpoch: uint64(epoch), Site: site, LogC: v0, N: uint64(dims), Ref: v1,
			RetuneEpoch: uint64(epoch) + 1,
			WarpT:       uint16(t2), WarpS: uint16(s2), WarpK: uint16(k2), Warps: flat,
		}
		next := wal.Record{Template: "Q1", Seq: seq + 1, Epoch: epoch, Plan: 2, Cost: 1, Point: []float64{0.2, 0.8}}

		before := st.ReceivedSeq()
		st.ApplyRecords([]wal.Record{rec})
		mid := st.ReceivedSeq()
		st.ApplyRecords([]wal.Record{next})
		after := st.ReceivedSeq()
		if mid < before || after < mid {
			t.Fatalf("ReceivedSeq moved backwards: %d -> %d -> %d", before, mid, after)
		}
		res := st.PredictRPC(netproto.PredictRequest{Template: "Q1", Point: []float64{0.3, 0.3}})
		if res.Status == netproto.StatusNotReady || res.Status == netproto.StatusBadRequest {
			t.Fatalf("replica stopped serving: %+v", res)
		}
	})
}
