package lsh

import (
	"fmt"
	"math"
)

// Tunable LSH (Aluç et al., "Clustering RDF Databases Using Tunable-LSH"):
// instead of fixing the locality-preserving transforms at construction
// time, harvest the empirical distribution of projected coordinates on the
// insert path and periodically re-tune the mapping so the observed mass
// spreads uniformly over [0,1]. The re-tuning artifact here is a Warp — a
// monotone piecewise-linear map per (transform, output axis) built from
// the smoothed empirical CDF. Applying the warp after the base projection
// stretches dense regions of the parameter distribution across more grid
// cells (finer effective resolution where queries actually land) and
// compresses empty ones, without touching the base Transform: the base
// ensemble stays immutable and reproducible from its seed, and warps
// compose on top as explicit, serializable state.

// WarpBins is the resolution of the harvested coordinate histograms and of
// the piecewise-linear warps built from them. 16 bins keeps a warp at 17
// knots — cheap to ship, log and persist — while still resolving the
// multi-modal parameter distributions the tuner targets.
const WarpBins = 16

// Warp is a monotone piecewise-linear map [0,1] -> [0,1] with WarpBins
// equal-width input segments. knots[i] is the image of input i/WarpBins;
// knots[0] = 0 and knots[WarpBins] = 1, so a warp is always a bijection of
// the unit interval (up to flat segments) and never moves mass outside it.
type Warp struct {
	knots [WarpBins + 1]float64
}

// IdentityWarp returns the identity map.
func IdentityWarp() *Warp {
	w := &Warp{}
	for i := range w.knots {
		w.knots[i] = float64(i) / WarpBins
	}
	return w
}

// WarpFromKnots validates and adopts an explicit knot vector (used when
// decoding shipped or persisted warps). The vector must have WarpBins+1
// entries, start at 0, end at 1, and be nondecreasing.
func WarpFromKnots(knots []float64) (*Warp, error) {
	if len(knots) != WarpBins+1 {
		return nil, fmt.Errorf("lsh: warp needs %d knots, got %d", WarpBins+1, len(knots))
	}
	w := &Warp{}
	prev := 0.0
	for i, k := range knots {
		if math.IsNaN(k) || k < 0 || k > 1 {
			return nil, fmt.Errorf("lsh: warp knot %d out of range: %v", i, k)
		}
		if k < prev {
			return nil, fmt.Errorf("lsh: warp knots decrease at %d: %v < %v", i, k, prev)
		}
		w.knots[i] = k
		prev = k
	}
	if w.knots[0] != 0 || w.knots[WarpBins] != 1 {
		return nil, fmt.Errorf("lsh: warp endpoints must be 0 and 1, got %v and %v", w.knots[0], w.knots[WarpBins])
	}
	return w, nil
}

// Apply maps v through the warp. Inputs are clamped to [0,1] (NaN maps to
// 0); the result is in [0,1]. Allocation-free — safe on the serving path.
func (w *Warp) Apply(v float64) float64 {
	if !(v > 0) {
		return 0
	}
	if v >= 1 {
		return 1
	}
	scaled := v * WarpBins
	idx := int(scaled)
	if idx >= WarpBins {
		idx = WarpBins - 1
	}
	frac := scaled - float64(idx)
	return w.knots[idx] + frac*(w.knots[idx+1]-w.knots[idx])
}

// Knots returns a copy of the knot vector (for encoding and shipping).
func (w *Warp) Knots() []float64 {
	out := make([]float64, WarpBins+1)
	copy(out, w.knots[:])
	return out
}

// IsIdentity reports whether the warp is (exactly) the identity map.
func (w *Warp) IsIdentity() bool {
	for i := range w.knots {
		if w.knots[i] != float64(i)/WarpBins {
			return false
		}
	}
	return true
}

// Tuner accumulates the empirical distribution of projected coordinates —
// one WarpBins-bucket histogram per (transform, output axis) — and builds
// equalizing warps from it. Harvesting is a few array increments per
// insert; BuildWarps is only called on the (rare) re-tune pass. The tuner
// is not internally synchronized: callers serialize Observe/BuildWarps
// under the owning learner's write lock, matching the insert path.
type Tuner struct {
	transforms int
	axes       int
	// counts[t*axes+a][b] is the observed mass of transform t's axis-a
	// coordinate in bin b. float64 so decayed history stays fractional.
	counts [][WarpBins]float64
	// observed counts Observe calls since construction (not decayed):
	// gates re-tuning so warps are never built from nothing.
	observed uint64
	// decay is the multiplicative factor applied to all counts by Decay()
	// after a re-tune, so the distribution estimate tracks drift instead of
	// being dominated by ancient history.
	decay float64
	// smoothing is the per-bin pseudo-count mixed in by BuildWarps, keeping
	// warps tame (and invertible) in bins with little evidence.
	smoothing float64
}

// NewTuner returns a tuner for an ensemble of the given shape.
func NewTuner(transforms, axes int) *Tuner {
	return &Tuner{
		transforms: transforms,
		axes:       axes,
		counts:     make([][WarpBins]float64, transforms*axes),
		decay:      0.5,
		smoothing:  1,
	}
}

// Observe harvests one projected point for the given transform. coords are
// the pre-warp projected coordinates (length axes), already in [0,1].
func (t *Tuner) Observe(transform int, coords []float64) {
	base := transform * t.axes
	for a, v := range coords {
		b := int(v * WarpBins)
		if b >= WarpBins {
			b = WarpBins - 1
		}
		if b < 0 {
			b = 0
		}
		t.counts[base+a][b]++
	}
	if transform == 0 {
		t.observed++
	}
}

// Observed reports how many points the tuner has harvested.
func (t *Tuner) Observed() uint64 { return t.observed }

// BuildWarps returns the equalizing warps for the current counts: per
// (transform, axis), the smoothed empirical CDF, which maps the observed
// distribution to (approximately) uniform. Pure — the tuner's state is
// unchanged, so the same counts always build bit-identical warps (the
// property replica parity and crash recovery rely on).
func (t *Tuner) BuildWarps() [][]*Warp {
	out := make([][]*Warp, t.transforms)
	for tr := 0; tr < t.transforms; tr++ {
		out[tr] = make([]*Warp, t.axes)
		for a := 0; a < t.axes; a++ {
			out[tr][a] = t.warpFor(tr*t.axes + a)
		}
	}
	return out
}

func (t *Tuner) warpFor(row int) *Warp {
	var total float64
	for _, c := range t.counts[row] {
		total += c + t.smoothing
	}
	w := &Warp{}
	cum := 0.0
	for b := 0; b < WarpBins; b++ {
		w.knots[b] = cum / total
		cum += t.counts[row][b] + t.smoothing
	}
	w.knots[WarpBins] = 1
	return w
}

// Decay ages the harvested counts after a re-tune so the next pass weighs
// recent traffic over history.
func (t *Tuner) Decay() {
	for i := range t.counts {
		for b := range t.counts[i] {
			t.counts[i][b] *= t.decay
		}
	}
}

// Counts returns the harvested counts flattened row-major (for encoding).
func (t *Tuner) Counts() []float64 {
	out := make([]float64, 0, len(t.counts)*WarpBins)
	for i := range t.counts {
		out = append(out, t.counts[i][:]...)
	}
	return out
}

// Observe-state restore: SetCounts adopts a flattened count vector and the
// observed total (for decoding persisted tuner state).
func (t *Tuner) SetCounts(flat []float64, observed uint64) error {
	if len(flat) != len(t.counts)*WarpBins {
		return fmt.Errorf("lsh: tuner counts length %d, want %d", len(flat), len(t.counts)*WarpBins)
	}
	for i := range t.counts {
		copy(t.counts[i][:], flat[i*WarpBins:(i+1)*WarpBins])
	}
	t.observed = observed
	return nil
}

// Shape returns (transforms, axes).
func (t *Tuner) Shape() (int, int) { return t.transforms, t.axes }
