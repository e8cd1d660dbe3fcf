package ppc

// Input validation where values enter the system: Run rejects NaN
// parameters before they reach the learner or the WAL, and PredictRPC
// rejects non-finite points before they reach the (possibly warped)
// predictor.

import (
	"math"
	"testing"

	"repro/internal/netproto"
)

// runErrors reads the template's run-error counter.
func runErrors(t *testing.T, sys *System, template string) uint64 {
	t.Helper()
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range snap.Templates {
		if tm.Template == template {
			return tm.Counters.RunErrors
		}
	}
	t.Fatalf("no metrics for template %s", template)
	return 0
}

// A NaN parameter has no plan space point: Run fails it and counts it,
// and neither the learner nor the WAL sees it. ±Inf stays accepted (its
// selectivity clamps to the domain edge).
func TestRunRejectsNaNParameters(t *testing.T) {
	sys := openDurable(t, t.TempDir(), nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 60, 1)
	before, err := sys.TemplateStats("Q1")
	if err != nil {
		t.Fatal(err)
	}
	seq, errs := sys.WALLastSeq(), runErrors(t, sys, "Q1")
	for i := 0; i < 20; i++ {
		if _, err := sys.Run("Q1", []float64{math.NaN(), math.NaN()}); err == nil {
			t.Fatal("Run accepted NaN parameters")
		}
	}
	if got := runErrors(t, sys, "Q1"); got != errs+20 {
		t.Errorf("run errors = %d, want %d", got, errs+20)
	}
	after, err := sys.TemplateStats("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if after.SamplesAbsorbed != before.SamplesAbsorbed {
		t.Errorf("learner absorbed NaN runs: %d samples, want %d", after.SamplesAbsorbed, before.SamplesAbsorbed)
	}
	if got := sys.WALLastSeq(); got != seq {
		t.Errorf("NaN runs appended WAL records: last seq %d, want %d", got, seq)
	}
	res, err := sys.Run("Q1", []float64{math.Inf(1), math.Inf(-1)})
	if err != nil {
		t.Fatalf("Run rejected ±Inf parameters: %v", err)
	}
	for _, v := range res.Point {
		if !(v >= 0 && v <= 1) {
			t.Fatalf("±Inf parameters mapped to point %v, want the domain edges", res.Point)
		}
	}
}

// Once a template has re-tuned, a NaN coordinate used to index the warp
// knots out of range. The leader's PredictRPC answers it as a bad request.
func TestLeaderPredictRPCRejectsNonFinitePoint(t *testing.T) {
	sys := openDurable(t, t.TempDir(), mutTunable)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 200, 3)
	if _, err := sys.TemplateStats("Q1"); err != nil { // flush the applier
		t.Fatal(err)
	}
	if retuneEpoch(t, sys, "Q1") == 0 {
		t.Fatal("leader never re-tuned; test is vacuous")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := sys.PredictRPC(netproto.PredictRequest{ID: 7, Template: "Q1", Point: []float64{0.3, v}})
		if res.Status != netproto.StatusBadRequest || res.ID != 7 {
			t.Fatalf("PredictRPC at coordinate %v = %+v, want StatusBadRequest", v, res)
		}
	}
	if res := sys.PredictRPC(netproto.PredictRequest{Template: "Q1", Point: []float64{0.3, 0.3}}); res.Status == netproto.StatusBadRequest {
		t.Fatalf("finite point rejected: %+v", res)
	}
}
