package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/histogram"
	"repro/internal/lsh"
	"repro/internal/zorder"
)

// ApproxLSHHist is the APPROXIMATE-LSH-HISTOGRAMS algorithm of Section
// IV-C: each intermediate LSH space is linearized with a z-order
// space-filling curve, and the distribution of plan space points along the
// curve is summarized in database histograms — one histogram per
// (transformation, plan) pair, each holding at most b_h buckets of a point
// count and an average execution cost.
//
// A density (or cost) query for plan P in space I_j is a histogram range
// query on [T_j(x)−δ, T_j(x)+δ], where 2δ equals the volume of the query
// hypersphere of radius d (translated into the intermediate space). Two
// sanity checks guard the z-order's lossiness: noise elimination discards
// plan densities below a fixed fraction of the total point count, and the
// confidence check of Section IV-A suppresses predictions near apparent
// boundaries (including spurious ones created by buckets that span
// non-contiguous curve intervals).
type ApproxLSHHist struct {
	cfg      Config
	ensemble *lsh.Ensemble
	curves   []*zorder.Curve
	hists    []map[int]*histogram.Dynamic // per transform: plan -> histogram
	// marginals summarize the total point distribution along each curve;
	// they anchor the rank-measure component of the query range so that 2δ
	// covers at least the ball-volume fraction of the observed points
	// regardless of how the randomized projection distorts the value
	// distribution.
	marginals []*histogram.Dynamic
	// valueDeltas is the geometric half-range per transform: the z-measure
	// of the image of the query ball.
	valueDeltas []float64
	// ballFrac is the plan-space volume fraction of the query ball — the
	// paper's "2δ equal to the volume of a hypersphere with radius d".
	ballFrac float64
	total    int
	plans    map[int]bool
	// scr holds the reusable buffers of the allocation-free serving path.
	// The live predictor is not safe for concurrent use — its owner
	// (core.Online's learner lock) serializes Insert/Predict — so a single
	// scratch per predictor suffices. Lock-free readers instead call
	// Model.PredictWithCost with pooled scratches.
	scr *PredictScratch

	// Tunable-LSH state (nil/zero when Config.RetuneEvery is 0). warps is
	// the current per-(transform, axis) monotone re-mapping composed on top
	// of the immutable base ensemble (nil = identity); it is replaced
	// wholesale by ApplyRetune and shared with frozen Models, never mutated
	// in place. tuner harvests the pre-warp coordinate distribution on every
	// live insert; reservoir retains owned copies of the newest samples (a
	// ring of resCap) so a re-tune can rebuild the synopsis under the new
	// mapping; retuneEpoch stamps each published re-tune.
	warps       [][]*lsh.Warp
	tuner       *lsh.Tuner
	retuneEpoch uint64
	retuneEvery int
	sinceRetune int
	reservoir   []cluster.Sample
	resNext     int
	resCap      int

	// gen counts mutations (Insert/Reset); frozen caches the Model
	// published at frozenGen so Freeze after a quiet period is a pointer
	// return, and otherwise copies only the histograms touched since the
	// previous publication (each Dynamic caches its own frozen view).
	gen       uint64
	frozen    *Model
	frozenGen uint64
}

// PredictScratch is the working memory of one in-flight predict call,
// reused across calls so the steady-state serving path performs no heap
// allocation. The live predictor owns one; lock-free snapshot readers draw
// them from a sync.Pool. Rows of counts/costs are recycled; they only grow
// while new plans appear.
type PredictScratch struct {
	x         []float64   // clamped input point
	proj      []float64   // one transform's projection output
	cell      []uint32    // z-order cell coordinates
	localMass []float64   // per-transform marginal mass in the query range
	tmp       []float64   // median working buffer (length t)
	planRow   map[int]int // plan id -> row into counts/costs
	planIDs   []int       // plans with in-range mass, sorted before voting
	med       []float64   // per-plan median density, aligned with planIDs
	counts    [][]float64 // [row][transform] in-range count (0 = none)
	costs     [][]float64 // [row][transform] in-range average cost
}

// NewPredictScratch allocates scratch buffers sized for cfg. cfg must be an
// effective (defaulted) configuration, e.g. from Model.Config.
func NewPredictScratch(cfg Config) *PredictScratch {
	t := cfg.Transforms
	return &PredictScratch{
		x:         make([]float64, cfg.Dims),
		proj:      make([]float64, cfg.OutDims),
		cell:      make([]uint32, cfg.OutDims),
		localMass: make([]float64, t),
		tmp:       make([]float64, t),
		planRow:   make(map[int]int),
	}
}

// scratch lazily creates the predictor's scratch buffers (decoded
// predictors arrive without them).
func (p *ApproxLSHHist) scratch() *PredictScratch {
	if p.scr == nil {
		p.scr = NewPredictScratch(p.cfg)
	}
	return p.scr
}

// addPlan registers a plan seen during the current query and returns its
// row, zeroing a recycled row or growing the row set on first use.
func (s *PredictScratch) addPlan(plan, t int) int {
	row := len(s.planIDs)
	s.planIDs = append(s.planIDs, plan)
	s.planRow[plan] = row
	if row == len(s.counts) {
		s.counts = append(s.counts, make([]float64, t))
		s.costs = append(s.costs, make([]float64, t))
	} else {
		for i := range s.counts[row] {
			s.counts[row][i] = 0
			s.costs[row][i] = 0
		}
	}
	return row
}

// sortPlans is an in-place insertion sort (plan sets are tiny; avoids the
// sort package's interface machinery on the hot path).
func sortPlans(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// NewApproxLSHHist creates an APPROXIMATE-LSH-HISTOGRAMS predictor.
func NewApproxLSHHist(cfg Config) (*ApproxLSHHist, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bits := zBitsFor(cfg.OutDims)
	curve, err := zorder.New(cfg.OutDims, bits)
	if err != nil {
		return nil, err
	}
	ens, err := lsh.NewEnsemble(cfg.Transforms, cfg.Dims, cfg.OutDims, int(curve.CellsPerAxis()), rng)
	if err != nil {
		return nil, err
	}
	p := &ApproxLSHHist{
		cfg:         cfg,
		ensemble:    ens,
		curves:      make([]*zorder.Curve, cfg.Transforms),
		hists:       make([]map[int]*histogram.Dynamic, cfg.Transforms),
		marginals:   make([]*histogram.Dynamic, cfg.Transforms),
		valueDeltas: make([]float64, cfg.Transforms),
		ballFrac:    math.Min(geom.BallVolume(cfg.Dims, cfg.Radius), 0.5),
		plans:       make(map[int]bool),
	}
	for i := range p.curves {
		p.curves[i] = curve
		p.hists[i] = make(map[int]*histogram.Dynamic)
		p.marginals[i] = histogram.MustNewDynamic(cfg.HistBuckets, 0, 1)
		tr := ens.Transform(i)
		delta := geom.BallVolume(cfg.OutDims, cfg.Radius*tr.AxisScale()) / 2
		delta = math.Max(delta, curve.CellWidth())
		p.valueDeltas[i] = math.Min(delta, 0.5)
	}
	if cfg.RetuneEvery > 0 {
		p.initTuning(cfg)
	}
	return p, nil
}

// initTuning arms the tunable-LSH machinery for a predictor whose config
// enables it (or whose restored state did, see decodeRetune).
func (p *ApproxLSHHist) initTuning(cfg Config) {
	p.tuner = lsh.NewTuner(cfg.Transforms, cfg.OutDims)
	p.retuneEvery = cfg.RetuneEvery
	p.resCap = cfg.RetuneReservoir
}

// MustNewApproxLSHHist is like NewApproxLSHHist but panics on error.
func MustNewApproxLSHHist(cfg Config) *ApproxLSHHist {
	p, err := NewApproxLSHHist(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// zBitsFor picks the z-order per-axis bit depth for an s-dimensional grid:
// fine enough that histogram buckets, not grid cells, limit resolution.
func zBitsFor(s int) int {
	bits := 30 / s
	if bits > 10 {
		bits = 10
	}
	if bits < 3 {
		bits = 3
	}
	return bits
}

// Insert implements Predictor: the point is pushed through every
// transformation (and the current warps, when tunable LSH is armed) and its
// z-order coordinate is inserted into the histogram of its plan in every
// intermediate space. Live inserts additionally harvest the pre-warp
// coordinate distribution and retain the sample in the re-tune reservoir.
func (p *ApproxLSHHist) Insert(s cluster.Sample) {
	if len(s.Point) != p.cfg.Dims {
		panic(fmt.Sprintf("core: expected %d dims, got %d", p.cfg.Dims, len(s.Point)))
	}
	p.insertSample(s, true)
	if p.tuner != nil {
		p.reservoirAdd(s)
		p.sinceRetune++
	}
	p.gen++
}

// insertSample pushes one sample into the histograms. harvest selects
// whether the tuner observes the pre-warp coordinates — true for live
// inserts, false when ApplyRetune re-plays the reservoir (those points were
// observed once already).
func (p *ApproxLSHHist) insertSample(s cluster.Sample, harvest bool) {
	sc := p.scratch()
	clampPointInto(sc.x, s.Point)
	for i := range p.hists {
		if err := p.ensemble.Transform(i).ApplyInto(sc.proj, sc.x); err != nil {
			panic(err) // dims validated by the caller
		}
		if harvest && p.tuner != nil {
			p.tuner.Observe(i, sc.proj)
		}
		if p.warps != nil {
			warpInto(p.warps[i], sc.proj)
		}
		z := p.curves[i].ValueWith(sc.cell, sc.proj)
		h := p.hists[i][s.Plan]
		if h == nil {
			h = histogram.MustNewDynamic(p.cfg.HistBuckets, 0, 1)
			p.hists[i][s.Plan] = h
		}
		h.Insert(z, s.Cost)
		p.marginals[i].Insert(z, 0)
	}
	p.plans[s.Plan] = true
	p.total++
}

// warpInto applies one transform's per-axis warps to a projected point in
// place. Allocation-free — it runs on the serving path too (predictOn).
func warpInto(ws []*lsh.Warp, proj []float64) {
	for a := range proj {
		proj[a] = ws[a].Apply(proj[a])
	}
}

// reservoirAdd retains an owned copy of the sample in the re-tune ring.
func (p *ApproxLSHHist) reservoirAdd(s cluster.Sample) {
	if p.resCap <= 0 {
		return
	}
	pt := make([]float64, len(s.Point))
	copy(pt, s.Point)
	owned := cluster.Sample{Point: pt, Plan: s.Plan, Cost: s.Cost}
	if len(p.reservoir) < p.resCap {
		p.reservoir = append(p.reservoir, owned)
		return
	}
	p.reservoir[p.resNext] = owned
	p.resNext = (p.resNext + 1) % p.resCap
}

// RetuneDue reports whether enough insertions have accumulated since the
// last re-tune for the tuner to rebuild the warps.
func (p *ApproxLSHHist) RetuneDue() bool {
	return p.tuner != nil && p.retuneEvery > 0 &&
		p.sinceRetune >= p.retuneEvery && p.tuner.Observed() > 0
}

// PrepareRetune builds (without applying) the equalizing warps for the
// harvested distribution. Pure: the same harvested counts always build
// bit-identical warps, so the leader can log them before applying and a
// replica replaying the log lands on the identical mapping.
func (p *ApproxLSHHist) PrepareRetune() [][]*lsh.Warp {
	if p.tuner == nil {
		return nil
	}
	return p.tuner.BuildWarps()
}

// ApplyRetune switches the predictor to the given warps at the given epoch
// and re-maps the synopsis: the histograms cannot be remapped in place (the
// z-order linearization is lossy), so they are rebuilt from the retained
// reservoir under the new mapping — a bounded, deterministic reconstruction
// that keeps the freshest evidence and lets older history age out. The
// harvested counts decay so the next pass weighs recent traffic.
func (p *ApproxLSHHist) ApplyRetune(epoch uint64, warps [][]*lsh.Warp) {
	p.warps = warps
	if p.tuner != nil {
		p.tuner.Decay()
	}
	for i := range p.hists {
		p.hists[i] = make(map[int]*histogram.Dynamic)
		p.marginals[i].Reset()
	}
	p.plans = make(map[int]bool)
	p.total = 0
	p.eachReservoir(func(s cluster.Sample) { p.insertSample(s, false) })
	p.retuneEpoch = epoch
	p.sinceRetune = 0
	p.gen++
}

// eachReservoir visits the retained samples oldest-first (ring order), the
// deterministic order every rebuild — leader, replica, recovery — shares.
func (p *ApproxLSHHist) eachReservoir(fn func(cluster.Sample)) {
	if len(p.reservoir) < p.resCap {
		for _, s := range p.reservoir {
			fn(s)
		}
		return
	}
	for i := 0; i < len(p.reservoir); i++ {
		fn(p.reservoir[(p.resNext+i)%len(p.reservoir)])
	}
}

// RetuneEpoch returns the predictor's re-tune epoch (0 = the base mapping).
func (p *ApproxLSHHist) RetuneEpoch() uint64 { return p.retuneEpoch }

// Warps returns the current warp set (nil = identity base mapping).
func (p *ApproxLSHHist) Warps() [][]*lsh.Warp { return p.warps }

// Tuner exposes the harvest state (nil when tunable LSH is disabled).
func (p *ApproxLSHHist) Tuner() *lsh.Tuner { return p.tuner }

// Predict implements Predictor.
func (p *ApproxLSHHist) Predict(x []float64) cluster.Prediction {
	pred, _, _ := p.PredictWithCost(x)
	return pred
}

// PredictWithCost implements CostPredictor. The steady-state call performs
// no heap allocation: every temporary lives in the predictor's scratch. The
// body is the generic predictOn core shared with Model.PredictWithCost,
// instantiated here over the live *histogram.Dynamic synopses.
func (p *ApproxLSHHist) PredictWithCost(x []float64) (cluster.Prediction, float64, bool) {
	if p.total < p.cfg.MinSamples || len(x) != p.cfg.Dims {
		// A malformed point answers NULL — the facade's capturePanic guard
		// must not be bypassable through the predictor boundary.
		return cluster.Prediction{}, 0, false
	}
	return predictOn(&p.cfg, p.ensemble, p.curves, p.warps, p.hists, p.marginals, p.valueDeltas, p.ballFrac, x, p.scratch())
}

// Freeze publishes an immutable Model of the current state. Consecutive
// calls without an intervening mutation return the SAME *Model; otherwise
// the per-(transform, plan) maps are rebuilt but each histogram's Freeze is
// a cached pointer unless that histogram was written — copy-on-write at
// histogram granularity.
func (p *ApproxLSHHist) Freeze() *Model {
	if p.frozen != nil && p.frozenGen == p.gen {
		return p.frozen
	}
	m := &Model{
		cfg:         p.cfg,
		ensemble:    p.ensemble,
		curves:      p.curves,
		warps:       p.warps,
		hists:       make([]map[int]*histogram.Histogram, len(p.hists)),
		marginals:   make([]*histogram.Histogram, len(p.marginals)),
		valueDeltas: p.valueDeltas,
		ballFrac:    p.ballFrac,
		total:       p.total,
		nPlans:      len(p.plans),
		version:     p.gen,
		retuneEpoch: p.retuneEpoch,
	}
	for i := range p.hists {
		m.hists[i] = make(map[int]*histogram.Histogram, len(p.hists[i]))
		for plan, h := range p.hists[i] {
			m.hists[i][plan] = h.Freeze()
		}
		m.marginals[i] = p.marginals[i].Freeze()
	}
	p.frozen = m
	p.frozenGen = p.gen
	return m
}

// TotalPoints implements Predictor.
func (p *ApproxLSHHist) TotalPoints() int { return p.total }

// MemoryBytes implements Predictor with the paper's accounting — t·n·b_h·12
// — plus one marginal histogram per transformation.
func (p *ApproxLSHHist) MemoryBytes() int {
	n := len(p.plans)
	if n == 0 {
		n = 1
	}
	return p.cfg.Transforms * (n + 1) * p.cfg.HistBuckets * histogram.BytesPerBucket
}

// Reset implements Predictor: all histograms are dropped, matching the
// Section IV-E recovery action ("we drop all histograms created for that
// query template and start accumulating sample points from scratch"). The
// re-tune reservoir is dropped with them (its samples carry the stale plan
// labels a drift reset exists to forget), but the warps and the harvested
// coordinate distribution survive — the parameter distribution is
// orthogonal to where the plan boundaries moved.
func (p *ApproxLSHHist) Reset() {
	for i := range p.hists {
		p.hists[i] = make(map[int]*histogram.Dynamic)
		p.marginals[i].Reset()
	}
	p.plans = make(map[int]bool)
	p.total = 0
	p.reservoir = p.reservoir[:0]
	p.resNext = 0
	p.sinceRetune = 0
	p.gen++
}

// Config returns the effective (defaulted) configuration.
func (p *ApproxLSHHist) Config() Config { return p.cfg }
