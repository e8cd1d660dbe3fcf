package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lsh"
	"repro/internal/stats"
	"repro/internal/wal"
)

// memWAL is an in-memory write-ahead log capturing every record kind a
// learner emits — feedback, retune and correction — as wal.Records under
// one shared monotone sequence, exactly the stream recovery and replicas
// apply.
type memWAL struct {
	template string
	recs     []wal.Record
	commits  int
}

func (l *memWAL) append(r wal.Record) uint64 {
	r.Template = l.template
	r.Seq = uint64(len(l.recs)) + 1
	l.recs = append(l.recs, r)
	return r.Seq
}

func (l *memWAL) LogFeedback(fb *Feedback) (uint64, error) {
	return l.append(wal.Record{
		Kind: wal.RecordFeedback, Epoch: fb.Epoch, Plan: int64(fb.Plan), Cost: fb.Cost,
		SelfLabeled: fb.SelfLabeled, Point: append([]float64(nil), fb.Point...),
	}), nil
}

func (l *memWAL) Commit() error {
	l.commits++
	return nil
}

func (l *memWAL) LogRetune(epoch uint64, warps [][]*lsh.Warp) (uint64, error) {
	t, s, k, flat := FlattenWarps(warps)
	return l.append(wal.Record{
		Kind: wal.RecordRetune, RetuneEpoch: epoch,
		WarpT: uint16(t), WarpS: uint16(s), WarpK: uint16(k), Warps: flat,
	}), nil
}

func (l *memWAL) LogCorrection(rec *stats.CorrRecord) (uint64, error) {
	return l.append(wal.Record{
		Kind: wal.RecordCorrection, CorrEpoch: rec.Epoch, Site: uint32(rec.Site),
		LogC: rec.LogC, N: rec.N, Ref: rec.Ref,
	}), nil
}

const applyLogSites = 3

func applyLogConfig() OnlineConfig {
	cfg := retuneTestConfig()
	cfg.Core.RetuneEvery = 25
	cfg.Core.RetuneReservoir = 48
	return cfg
}

// newApplyLogLearner builds a learner with corrections attached, as the
// facade registers one.
func newApplyLogLearner() *Online {
	o := MustNewOnline(applyLogConfig(), &quadrantEnv{wrongFactor: 3})
	o.AttachCorrections(stats.NewCorrections(applyLogSites, stats.CorrConfig{}))
	return o
}

func encodeState(t *testing.T, o *Online) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameLearner compares every observable of two learners: state
// bytes, predictions on a probe set, watermarks, retune epoch and
// correction state.
func requireSameLearner(t *testing.T, what string, want, got *Online) {
	t.Helper()
	if !bytes.Equal(encodeState(t, want), encodeState(t, got)) {
		t.Fatalf("%s: EncodeState bytes differ from the live learner", what)
	}
	if want.AppliedSeq() != got.AppliedSeq() {
		t.Fatalf("%s: AppliedSeq %d, live %d", what, got.AppliedSeq(), want.AppliedSeq())
	}
	if want.RetuneEpoch() != got.RetuneEpoch() {
		t.Fatalf("%s: RetuneEpoch %d, live %d", what, got.RetuneEpoch(), want.RetuneEpoch())
	}
	we, ws, wsites := want.Corrections().State()
	ge, gs, gsites := got.Corrections().State()
	if we != ge || ws != gs || !reflect.DeepEqual(wsites, gsites) {
		t.Fatalf("%s: corrections (epoch %d, seq %d, %v), live (epoch %d, seq %d, %v)",
			what, ge, gs, gsites, we, ws, wsites)
	}
	rng := rand.New(rand.NewSource(89))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		wp, wc, wok := want.PredictModel(x)
		gp, gc, gok := got.PredictModel(x)
		if wp != gp || wc != gc || wok != gok {
			t.Fatalf("%s: prediction at %v is %+v/%v/%v, live %+v/%v/%v", what, x, gp, gc, gok, wp, wc, wok)
		}
	}
}

// TestApplyLogCopiesMatchLiveLearner is the property behind the single
// apply path: for random interleavings of feedback, correction and retune
// records, the live learner, a learner recovered from a mid-stream
// checkpoint, and a replica built from the cold encoding all end up
// identical after ApplyLog of the full stream — and a second ApplyLog of
// the same stream changes nothing.
func TestApplyLogCopiesMatchLiveLearner(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := newApplyLogLearner()
		log := &memWAL{template: "Q1"}
		live.SetWAL(log)
		live.SetRetuneLogger(log)
		cold := encodeState(t, live)

		steps := 150 + rng.Intn(150)
		checkpointAt := rng.Intn(steps + 1)
		var checkpoint []byte
		for i := 0; i < steps; i++ {
			if i == checkpointAt {
				checkpoint = encodeState(t, live)
			}
			if rng.Float64() < 0.7 {
				x := []float64{rng.Float64(), rng.Float64()}
				if err := live.LearnValidated(x, quadrantPlan(x), quadrantCost(x)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			obs := make([]stats.Obs, 1+rng.Intn(applyLogSites))
			for j := range obs {
				obs[j] = stats.Obs{Site: 1 + rng.Intn(applyLogSites), LogQ: rng.NormFloat64()}
			}
			live.Corrections().Apply(obs, log)
		}
		if checkpoint == nil {
			checkpoint = encodeState(t, live)
		}
		if live.RetuneEpoch() == 0 {
			t.Fatalf("seed %d: no retune in %d steps; the barrier is untested", seed, steps)
		}

		recovered := newApplyLogLearner()
		if err := recovered.DecodeState(bytes.NewReader(checkpoint)); err != nil {
			t.Fatal(err)
		}
		replica, err := NewReplicaOnline(bytes.NewReader(cold))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			o    *Online
		}{{"recovered", recovered}, {"replica", replica}} {
			if _, _, stale := c.o.ApplyLog(log.recs); stale != 0 {
				t.Fatalf("seed %d %s: %d stale records in a well-formed log", seed, c.what, stale)
			}
			requireSameLearner(t, c.what, live, c.o)
			before := encodeState(t, c.o)
			applied, skipped, stale := c.o.ApplyLog(log.recs)
			if applied != 0 || stale != 0 || skipped != len(log.recs) {
				t.Fatalf("seed %d %s: second ApplyLog = %d applied, %d skipped, %d stale; want 0/%d/0",
					seed, c.what, applied, skipped, stale, len(log.recs))
			}
			if !bytes.Equal(before, encodeState(t, c.o)) {
				t.Fatalf("seed %d %s: second ApplyLog changed the state", seed, c.what)
			}
			requireSameLearner(t, c.what+" after second ApplyLog", live, c.o)
		}
	}
}

// Recovery runs with the WAL attached: replayed records go through the live
// write path without being logged again or group-committed, and a feedback
// record without a sequence number — which would pass for a live point — is
// stale. A live point is logged and committed once.
func TestApplyLogDoesNotRelog(t *testing.T) {
	o := newApplyLogLearner()
	log := &memWAL{template: "Q1"}
	o.SetWAL(log)
	o.SetRetuneLogger(log)
	x := []float64{0.2, 0.3}
	applied, skipped, stale := o.ApplyLog([]wal.Record{
		{Kind: wal.RecordFeedback, Plan: int64(quadrantPlan(x)), Cost: quadrantCost(x), Point: x},
		{Kind: wal.RecordFeedback, Seq: 7, Plan: int64(quadrantPlan(x)), Cost: quadrantCost(x), Point: x},
	})
	if applied != 1 || skipped != 0 || stale != 1 {
		t.Fatalf("ApplyLog = %d applied, %d skipped, %d stale; want 1/0/1", applied, skipped, stale)
	}
	if o.Validated() != 1 || o.AppliedSeq() != 7 {
		t.Fatalf("Validated %d, AppliedSeq %d; want 1, 7", o.Validated(), o.AppliedSeq())
	}
	if len(log.recs) != 0 || log.commits != 0 {
		t.Fatalf("replay logged %d records and committed %d times; want none", len(log.recs), log.commits)
	}
	if err := o.LearnValidated(x, quadrantPlan(x), quadrantCost(x)); err != nil {
		t.Fatal(err)
	}
	if len(log.recs) != 1 || log.commits != 1 {
		t.Fatalf("live point logged %d records and committed %d times; want 1 and 1", len(log.recs), log.commits)
	}
}
