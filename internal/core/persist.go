package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"repro/internal/histogram"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Persistence of the learned synopses (Section IV-C histograms): a plan
// cache that survives restarts keeps not only the plan trees but the plan
// space knowledge that selects among them. An Online state stream
// (EncodeState) is a run of internal/snapshot sections:
//
//	"LSHH" predictor: u32 dims, outDims, transforms; i64 histBuckets;
//	       f64 radius, gamma, noiseFraction; u8 noiseElim; i64 minSamples,
//	       seed, total points; per transform: the marginal histogram, then
//	       u32 plan count and per plan (ascending): i64 plan id, histogram
//	"CNTR" counters: i64 validated, selfLabeled, drift epoch; u64 applied
//	       WAL sequence
//	"CORR" corrections (internal/stats), present when adaptive statistics
//	       are attached
//	"RTUN" tunable-LSH state (retune.go), present when tuning is or was
//	       active
//
// The randomized transformations are not stored: they regenerate from the
// seed, so restored predictions are bit-identical. The stream carries no
// checksum of its own; it travels inside the CRC-framed system snapshot.
var (
	tagPredictor = snapshot.Tag("LSHH")
	tagCounters  = snapshot.Tag("CNTR")
)

const (
	// maxDims and maxTransforms cap the decoded predictor shape so a
	// corrupt config cannot drive a large ensemble allocation (templates
	// have at most 6 parameters, configurations use up to 11 transforms).
	maxDims       = 32
	maxTransforms = 256
)

// encode writes the predictor section.
func (p *ApproxLSHHist) encode(w *snapshot.Writer) {
	w.Section(tagPredictor, func(w *snapshot.Writer) {
		c := p.cfg
		w.U32(uint32(c.Dims))
		w.U32(uint32(c.OutDims))
		w.U32(uint32(c.Transforms))
		w.I64(int64(c.HistBuckets))
		w.F64s(c.Radius, c.Gamma, c.NoiseFraction)
		w.Bool(c.NoiseElimination)
		w.I64(int64(c.MinSamples))
		w.I64(c.Seed)
		w.I64(int64(p.total))
		for i := range p.hists {
			p.marginals[i].Encode(w)
			plans := make([]int, 0, len(p.hists[i]))
			for plan := range p.hists[i] {
				plans = append(plans, plan)
			}
			sort.Ints(plans)
			w.U32(uint32(len(plans)))
			for _, plan := range plans {
				w.I64(int64(plan))
				p.hists[i][plan].Encode(w)
			}
		}
	})
}

// decodePredictor reads the predictor section, recording any failure in r.
func decodePredictor(r *snapshot.Reader) *ApproxLSHHist {
	var p *ApproxLSHHist
	r.Section(tagPredictor, func(r *snapshot.Reader) {
		cfg := Config{
			Dims: r.Count(maxDims), OutDims: r.Count(maxDims), Transforms: r.Count(maxTransforms),
			HistBuckets: int(r.I64()), Radius: r.F64(), Gamma: r.F64(), NoiseFraction: r.F64(),
			NoiseElimination: r.Bool(), MinSamples: int(r.I64()), Seed: r.I64(),
		}
		total := r.I64()
		if r.Err() != nil {
			return
		}
		if cfg.MinSamples == 0 {
			cfg.MinSamples = -1 // preserve "disabled" through the 0-default
		}
		dec, err := NewApproxLSHHist(cfg)
		if err != nil {
			r.Failf("%v", err)
			return
		}
		for i := range dec.hists {
			dec.marginals[i] = histogram.DecodeDynamic(r)
			for j, n := 0, r.Count(math.MaxInt32); j < n && r.Err() == nil; j++ {
				plan := int(r.I64())
				dec.hists[i][plan], dec.plans[plan] = histogram.DecodeDynamic(r), true
			}
		}
		dec.total = int(total)
		if r.Err() == nil {
			p = dec
		}
	})
	return p
}

// EncodeState persists the driver's learned state (the histogram synopsis,
// insertion counters, drift epoch, WAL watermark, and the corrections and
// retune sections when present) to w. The sliding estimator windows are
// deliberately not persisted — after a restart the framework re-estimates
// precision from fresh predictions. Callers that feed the driver through
// an asynchronous sink must drain it first so queued feedback is included.
//
// Epoch and the applied sequence make a checkpoint self-describing for
// recovery: the WAL replays only records past the applied sequence,
// interpreting their epochs relative to the checkpoint's.
func (o *Online) EncodeState(w io.Writer) error {
	var sw snapshot.Writer
	o.mu.Lock()
	o.pred.encode(&sw)
	sw.Section(tagCounters, func(w *snapshot.Writer) {
		w.I64(o.validated.Load())
		w.I64(o.selfLabeled.Load())
		w.I64(o.resets.Load())
		w.U64(o.appliedSeq.Load())
	})
	if o.corr != nil {
		o.corr.Encode(&sw)
	}
	if o.pred.hasTuningState() {
		o.pred.encodeRetune(&sw)
	}
	o.mu.Unlock()
	_, err := w.Write(sw.Bytes())
	return err
}

// decodeOnline is the one decoder of an EncodeState stream. It returns a
// predict-only driver holding the decoded learner (not yet published):
// NewReplicaOnline publishes it as is, DecodeState adopts its state into a
// configured driver.
func decodeOnline(r io.Reader) (*Online, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read state: %w", err)
	}
	sr := snapshot.NewReader(b)
	pred := decodePredictor(sr)
	var validated, selfLabeled, epoch int64
	var appliedSeq uint64
	sr.Section(tagCounters, func(r *snapshot.Reader) {
		validated, selfLabeled, epoch, appliedSeq = r.I64(), r.I64(), r.I64(), r.U64()
	})
	corr := stats.DecodeCorrections(sr)
	if pred != nil {
		pred.decodeRetune(sr)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("core: decode state: %w", err)
	}
	cfg, err := OnlineConfig{Core: pred.Config()}.withDefaults()
	if err != nil {
		return nil, err
	}
	o := &Online{
		cfg:  cfg,
		env:  replicaEnv{},
		pred: pred,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		est:  metrics.NewTemplateEstimator(cfg.WindowK),
		corr: corr,
	}
	o.scratch.New = func() any { return NewPredictScratch(cfg.Core) }
	o.validated.Store(validated)
	o.selfLabeled.Store(selfLabeled)
	o.resets.Store(epoch)
	o.appliedSeq.Store(appliedSeq)
	return o, nil
}

// DecodeState restores a driver state written by EncodeState and publishes
// the restored model. The restored predictor must match this driver's plan
// space dimensionality.
func (o *Online) DecodeState(r io.Reader) error {
	dec, err := decodeOnline(r)
	if err != nil {
		return err
	}
	pred := dec.pred
	if pred.Config().Dims != o.cfg.Core.Dims {
		return fmt.Errorf("core: restored state has %d dims, driver expects %d",
			pred.Config().Dims, o.cfg.Core.Dims)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.corr != nil {
		// A state without a corrections section (adaptive stats off at save
		// time) resets the corrections to cold rather than keeping
		// unrelated state.
		if err := o.corr.Adopt(dec.corr); err != nil {
			return err
		}
	}
	if !pred.hasTuningState() && o.cfg.Core.RetuneEvery > 0 {
		// Tunable LSH was off at save time but the driver wants it on: arm
		// the machinery cold with this driver's knobs on the restored
		// predictor's shape.
		c := pred.cfg
		c.RetuneEvery = o.cfg.Core.RetuneEvery
		c.RetuneReservoir = o.cfg.Core.RetuneReservoir
		pred.cfg = c
		pred.initTuning(c)
	}
	o.pred = pred
	o.validated.Store(dec.validated.Load())
	o.selfLabeled.Store(dec.selfLabeled.Load())
	o.resets.Store(dec.resets.Load())
	o.appliedSeq.Store(dec.appliedSeq.Load())
	o.est.Reset()
	o.publishLocked()
	return nil
}
