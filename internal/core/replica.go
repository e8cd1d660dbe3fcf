package core

// Replica-side construction and the shared predict-only entry point. A
// predict-only replica holds the same Online driver as the leader but never
// calls Step: it installs shipped EncodeState bytes, applies shipped WAL
// records through ApplyLog — the apply path crash recovery uses too — and
// serves predictions from the published snapshot. Because both sides decode
// the identical state bytes and apply the identical record stream, a
// replica's PredictModel output is bit-identical to the leader's for the
// same snapshot epoch. ApplyLog counts a shipped record that does not fit
// the learner (wrong point dimensionality, wrong warp grid shape) as stale
// and skips corrections when none were shipped, so no record can corrupt or
// crash the replica.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// PredictModel predicts at plan-space point x against the current published
// model snapshot: lock-free, zero allocations (scratch buffers are pooled).
// This is exactly the prediction the serving path (StepConcurrent) computes
// before deciding whether to invoke the optimizer — the leader's predict
// RPC and the replicas share it, which is what makes leader and replica
// answers comparable bit for bit.
func (o *Online) PredictModel(x []float64) (cluster.Prediction, float64, bool) {
	model := o.snap.Load()
	sc := o.scratch.Get().(*PredictScratch)
	pred, costEst, costOK := model.PredictWithCost(x, sc)
	o.scratch.Put(sc)
	return pred, costEst, costOK
}

// Dims returns the plan-space dimensionality the driver expects.
func (o *Online) Dims() int { return o.cfg.Core.Dims }

// NewReplicaOnline constructs a predict-only driver directly from an
// EncodeState stream, with no prior knowledge of the template's
// configuration — the predictor's own encoded config is the source of
// truth. The driver has a stub environment: it can install state, replay
// shipped WAL records and predict, but any code path that would invoke the
// optimizer or executor fails loudly instead of silently doing work a
// replica must not do.
func NewReplicaOnline(r io.Reader) (*Online, error) {
	pred, err := DecodeApproxLSHHist(r)
	if err != nil {
		return nil, err
	}
	var trailer [4]int64
	if err := binary.Read(r, binary.LittleEndian, trailer[:]); err != nil {
		return nil, fmt.Errorf("core: replica state trailer: %w", err)
	}
	if trailer[3] < 0 {
		return nil, fmt.Errorf("core: replica state has negative applied sequence %d", trailer[3])
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
	}
	scratchCfg := pred.Config()
	o.scratch.New = func() any { return NewPredictScratch(scratchCfg) }
	o.validated.Store(trailer[0])
	o.selfLabeled.Store(trailer[1])
	o.resets.Store(trailer[2])
	o.appliedSeq.Store(uint64(trailer[3]))
	// The optional sections ship with the learner so replica state stays in
	// lockstep with the leader's per epoch: corrections (nil when the leader
	// runs without adaptive stats) and tunable-LSH retune state (warps,
	// harvest counts, reservoir — without which a shipped re-tune record
	// could not rebuild the identical synopsis).
	corr, ret, err := decodeStateTail(r)
	if err != nil {
		return nil, fmt.Errorf("core: replica state tail: %w", err)
	}
	o.corr = corr
	if ret != nil {
		if err := pred.restoreRetune(ret); err != nil {
			return nil, err
		}
	}
	o.snap.Store(pred.Freeze())
	return o, nil
}

// replicaEnv is the Environment of a predict-only replica: there is no
// optimizer and no executor, so both calls are errors by construction.
type replicaEnv struct{}

func (replicaEnv) Optimize([]float64) (int, float64, error) {
	return 0, 0, fmt.Errorf("core: predict-only replica cannot invoke the optimizer")
}

func (replicaEnv) ExecuteCost([]float64, int) (float64, error) {
	return 0, fmt.Errorf("core: predict-only replica cannot execute plans")
}
