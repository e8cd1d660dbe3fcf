package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/wal"
)

// ApplyLog applies one template's write-ahead log records, in log order, to
// the learner. It is the single apply path: crash recovery replays the WAL
// tail through it and replicas apply shipped records through it, so every
// copy of the learner receives the same updates in the same order as the
// live one.
//
//   - Feedback records collect into a batch that goes through ApplyBatch,
//     the live write path: one lock acquisition and one publish per batch.
//     A record without a sequence number (every logged record has one; a
//     zero Seq would pass for a live point and be logged and re-tuned on
//     again), or whose point does not have the learner's dimensionality or
//     has a non-finite coordinate, is stale.
//   - A retune record is a barrier: the pending batch flushes first (the
//     rebuild reads the reservoir as it stood at the switch), then the warps
//     go through ReplayRetune. A record whose warp grid is malformed or does
//     not match the predictor's transforms × output dimensions is stale.
//   - Correction records go to the attached correction state. They carry
//     absolute post-update state, so they need no barrier. Without attached
//     corrections (adaptive statistics off) they are skipped.
//
// Records of an unknown kind are stale. Every path is idempotent through
// the applied-sequence watermarks, so applying the same log twice changes
// nothing the second time (skipped counts what the watermarks rejected).
func (o *Online) ApplyLog(recs []wal.Record) (applied, skipped, stale int) {
	dims := o.Dims()
	corr := o.Corrections()
	batch := make([]Feedback, 0, len(recs))
	flush := func() {
		a, sk, st := o.ApplyBatch(batch)
		applied += a
		skipped += sk
		stale += st
		batch = batch[:0]
	}
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case 0, wal.RecordFeedback: // a zero Kind encodes as feedback
			if r.Seq == 0 || !pointFits(r.Point, dims) {
				stale++
				continue
			}
			batch = append(batch, Feedback{
				Point:       r.Point,
				Plan:        int(r.Plan),
				Cost:        r.Cost,
				SelfLabeled: r.SelfLabeled,
				Epoch:       r.Epoch,
				Seq:         r.Seq,
			})
		case wal.RecordRetune:
			flush()
			transforms, axes := o.warpShape()
			if int(r.WarpT) != transforms || int(r.WarpS) != axes {
				stale++
				continue
			}
			warps, err := WarpsFromFlat(int(r.WarpT), int(r.WarpS), int(r.WarpK), r.Warps)
			if err != nil {
				stale++
			} else if o.ReplayRetune(r.Seq, r.RetuneEpoch, warps) {
				applied++
			} else {
				skipped++
			}
		case wal.RecordCorrection:
			if corr != nil && corr.Replay(stats.CorrRecord{
				Seq: r.Seq, Epoch: r.CorrEpoch, Site: int(r.Site), LogC: r.LogC, N: r.N, Ref: r.Ref,
			}) {
				applied++
			} else {
				skipped++
			}
		default:
			stale++
		}
	}
	flush()
	return applied, skipped, stale
}

// pointFits reports whether a logged point can enter the synopsis: the
// learner's dimensionality and finite coordinates only.
func pointFits(x []float64, dims int) bool {
	if len(x) != dims {
		return false
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// warpShape returns the warp grid shape the live predictor maps through:
// one warp per transform and output axis.
func (o *Online) warpShape() (transforms, axes int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.pred.Config()
	return c.Transforms, c.OutDims
}
