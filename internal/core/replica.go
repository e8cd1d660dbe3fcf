package core

// Replica-side construction and the shared predict-only entry point. A
// predict-only replica holds the same Online driver as the leader but never
// calls Step: it installs shipped EncodeState bytes, applies shipped WAL
// records through ApplyLog — the apply path crash recovery uses too — and
// serves predictions from the published snapshot through PredictRPC, the
// body the leader's predict RPC runs too. Because both sides decode
// the identical state bytes and apply the identical record stream, a
// replica's PredictModel output is bit-identical to the leader's for the
// same snapshot epoch. ApplyLog counts a shipped record that does not fit
// the learner (wrong point dimensionality, wrong warp grid shape) as stale
// and skips corrections when none were shipped, so no record can corrupt or
// crash the replica.

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/netproto"
)

// PredictModel predicts at plan-space point x against the current published
// model snapshot: lock-free, zero allocations (scratch buffers are pooled).
// This is exactly the prediction the serving path (StepConcurrent) computes
// before deciding whether to invoke the optimizer; PredictRPC answers
// through it.
func (o *Online) PredictModel(x []float64) (cluster.Prediction, float64, bool) {
	model := o.snap.Load()
	sc := o.scratch.Get().(*PredictScratch)
	pred, costEst, costOK := model.PredictWithCost(x, sc)
	o.scratch.Put(sc)
	return pred, costEst, costOK
}

// PredictRPC answers one wire predict request from the published model
// snapshot. It is the one body behind the leader's and a replica's predict
// RPCs, which is what makes their answers bit-identical for the same
// snapshot epoch. A point of the wrong dimensionality or with a NaN or
// infinite coordinate is a StatusBadRequest, rejected before it reaches
// the predictor. The caller owns the plan id -> fingerprint table and
// fills Fingerprint on StatusOK. An RPC is a read: it never invokes the
// optimizer and never feeds the learner.
func (o *Online) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	res := netproto.PredictResult{ID: req.ID, Status: netproto.StatusBadRequest}
	if len(req.Point) != o.Dims() {
		res.ErrMsg = fmt.Sprintf("point has %d coordinates, template %s expects %d",
			len(req.Point), req.Template, o.Dims())
		return res
	}
	for i, v := range req.Point {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.ErrMsg = fmt.Sprintf("point coordinate %d is %v, template %s needs finite coordinates",
				i, v, req.Template)
			return res
		}
	}
	pred, costEst, costOK := o.PredictModel(req.Point)
	res.Epoch = o.Epoch()
	res.ModelVersion = o.Model().Version()
	if !pred.OK {
		res.Status = netproto.StatusNoPrediction
		return res
	}
	res.Status = netproto.StatusOK
	res.Plan = int64(pred.Plan)
	res.Confidence = pred.Confidence
	res.Cost, res.CostKnown = costEst, costOK
	return res
}

// Dims returns the plan-space dimensionality the driver expects.
func (o *Online) Dims() int { return o.cfg.Core.Dims }

// NewReplicaOnline constructs a predict-only driver directly from an
// EncodeState stream, with no prior knowledge of the template's
// configuration — the predictor's own encoded config is the source of
// truth. The corrections and retune sections ship with the learner, so the
// replica's state stays in lockstep with the leader's per epoch. The driver
// has a stub environment: it can install state, replay shipped WAL records
// and predict, but any code path that would invoke the optimizer or
// executor fails loudly instead of silently doing work a replica must not
// do.
func NewReplicaOnline(r io.Reader) (*Online, error) {
	o, err := decodeOnline(r)
	if err != nil {
		return nil, err
	}
	o.snap.Store(o.pred.Freeze())
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
