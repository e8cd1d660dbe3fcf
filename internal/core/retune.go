package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/lsh"
	"repro/internal/snapshot"
)

// Tunable-LSH persistence: the re-tune state — active warps, harvested
// pre-warp coordinate counts, and the sample reservoir — is the optional
// "RTUN" section of an Online state stream, written after the corrections
// section. Its shape is the predictor's (transforms × output dims, input
// dims), which the section follows:
//
//	u64 retuneEpoch
//	i64 retuneEvery, sinceRetune, resCap
//	u32 bins (lsh.WarpBins)
//	u8  hasWarps;  if 1: f64 × transforms·axes·(bins+1) knots
//	u8  hasTuner;  if 1: u64 observed; f64 × transforms·axes·bins counts
//	u32 reservoir length; per sample: i64 plan, f64 cost, f64 × dims point
//	i64 resNext
//
// Decay and smoothing are package constants of the tuner, not persisted.
var tagRetune = snapshot.Tag("RTUN")

// maxRetuneReservoir caps the declared reservoir length so a corrupted
// stream cannot drive a huge allocation.
const maxRetuneReservoir = 1 << 20

// hasTuningState reports whether the predictor carries any tunable-LSH
// state worth a section.
func (p *ApproxLSHHist) hasTuningState() bool {
	return p.tuner != nil || p.warps != nil
}

// FlattenWarps serializes a warp grid into its shape and a flat knot slice —
// the form a WAL retune record carries on the wire. Row-major over
// transforms, then axes, then knots.
func FlattenWarps(warps [][]*lsh.Warp) (transforms, axes, knots int, flat []float64) {
	if len(warps) == 0 || len(warps[0]) == 0 {
		return 0, 0, 0, nil
	}
	transforms, axes, knots = len(warps), len(warps[0]), lsh.WarpBins+1
	flat = make([]float64, 0, transforms*axes*knots)
	for _, row := range warps {
		for _, w := range row {
			k := w.Knots()
			flat = append(flat, k[:]...)
		}
	}
	return transforms, axes, knots, flat
}

// WarpsFromFlat rebuilds a warp grid from its wire form, validating every
// warp's knots (monotone, endpoint-anchored). The exact inverse of
// FlattenWarps, so a logged retune record replays to bit-identical warps.
func WarpsFromFlat(transforms, axes, knots int, flat []float64) ([][]*lsh.Warp, error) {
	if transforms <= 0 || axes <= 0 {
		return nil, fmt.Errorf("core: warp grid shape %dx%d", transforms, axes)
	}
	if knots != lsh.WarpBins+1 {
		return nil, fmt.Errorf("core: warp record has %d knots, this build uses %d", knots, lsh.WarpBins+1)
	}
	if len(flat) != transforms*axes*knots {
		return nil, fmt.Errorf("core: warp record has %d values, shape %dx%dx%d needs %d",
			len(flat), transforms, axes, knots, transforms*axes*knots)
	}
	warps := make([][]*lsh.Warp, transforms)
	off := 0
	for i := range warps {
		warps[i] = make([]*lsh.Warp, axes)
		for a := range warps[i] {
			w, err := lsh.WarpFromKnots(flat[off : off+knots])
			if err != nil {
				return nil, fmt.Errorf("core: warp [%d][%d]: %w", i, a, err)
			}
			warps[i][a] = w
			off += knots
		}
	}
	return warps, nil
}

// encodeRetune writes the predictor's tunable-LSH section.
func (p *ApproxLSHHist) encodeRetune(w *snapshot.Writer) {
	w.Section(tagRetune, func(w *snapshot.Writer) {
		w.U64(p.retuneEpoch)
		w.I64(int64(p.retuneEvery))
		w.I64(int64(p.sinceRetune))
		w.I64(int64(p.resCap))
		w.U32(lsh.WarpBins)
		w.Bool(p.warps != nil)
		for _, row := range p.warps {
			for _, wp := range row {
				w.F64s(wp.Knots()...)
			}
		}
		w.Bool(p.tuner != nil)
		if p.tuner != nil {
			w.U64(p.tuner.Observed())
			w.F64s(p.tuner.Counts()...)
		}
		// Stored in slot order (not ring order): resNext reconstructs the ring.
		w.U32(uint32(len(p.reservoir)))
		for _, s := range p.reservoir {
			w.I64(int64(s.Plan))
			w.F64(s.Cost)
			w.F64s(s.Point...)
		}
		w.I64(int64(p.resNext))
	})
}

// decodeRetune adopts the optional retune section into p, recording any
// failure in r. The histograms were encoded post-warp, so no rebuild is
// needed — only the mapping and harvest state come back.
func (p *ApproxLSHHist) decodeRetune(r *snapshot.Reader) {
	r.Optional(tagRetune, func(r *snapshot.Reader) {
		epoch, every, since, resCap, bins := r.U64(), r.I64(), r.I64(), r.I64(), r.U32()
		if r.Err() == nil && (bins != lsh.WarpBins || every < 0 || since < 0 || resCap < 0 || resCap > maxRetuneReservoir) {
			r.Failf("core: implausible retune header (bins=%d every=%d since=%d cap=%d)", bins, every, since, resCap)
		}
		t, a := p.cfg.Transforms, p.cfg.OutDims
		p.retuneEpoch, p.retuneEvery, p.sinceRetune, p.resCap = epoch, int(every), int(since), int(resCap)
		p.warps, p.tuner, p.reservoir = nil, nil, nil
		if r.Bool() {
			warps, err := WarpsFromFlat(t, a, lsh.WarpBins+1, r.F64s(t*a*(lsh.WarpBins+1)))
			if err != nil {
				r.Failf("core: retune warps: %v", err)
			}
			p.warps = warps
		}
		if r.Bool() {
			observed, counts := r.U64(), r.F64s(t*a*lsh.WarpBins)
			for _, c := range counts {
				if !(c >= 0) || math.IsInf(c, 0) {
					r.Failf("core: invalid retune tuner count %v", c)
				}
			}
			p.tuner = lsh.NewTuner(t, a)
			if err := p.tuner.SetCounts(counts, observed); err != nil {
				r.Failf("%v", err)
			}
		}
		n := r.Count(p.resCap)
		for i := 0; i < n; i++ {
			p.reservoir = append(p.reservoir, cluster.Sample{Plan: int(r.I64()), Cost: r.F64(), Point: r.F64s(p.cfg.Dims)})
		}
		next := r.I64()
		if next < 0 || (n > 0 && next >= resCap) {
			r.Failf("core: implausible retune reservoir cursor %d", next)
		}
		p.resNext = int(next)
		p.gen++
	})
}
