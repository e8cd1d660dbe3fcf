package benchsuite

// Replication measurements for the PR 8 networked serving tier: the
// replica's predict path in isolation (it must stay allocation-free, like
// the leader's), and an in-process leader/replica pair measured end to end
// — snapshot catch-up time and the peak record lag while tailing a live
// write burst.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/replica"
)

var (
	replicaOnce sync.Once
	replicaErr  error
	replicaOn   *core.Online
)

// replicaPredictEnv ships the predictor-microbenchmark state through the
// replication encoding: a leader driver learns the same Q1 samples the
// PredictApproxLSHHist predictor was trained on, and its EncodeState bytes
// are decoded into a predict-only replica driver. Using identical state
// keeps the three predict benchmarks — raw predictor, leader model
// snapshot, replica — directly comparable in one report.
func replicaPredictEnv(b *testing.B) (*core.Online, [][]float64) {
	b.Helper()
	hist, tests := predictorEnv(b)
	replicaOnce.Do(func() {
		oracle := experiments.NewOracle(predEnv, predEnv.Templates["Q1"])
		leader, err := core.NewOnline(core.OnlineConfig{Core: hist.Config()}, oracle)
		if err != nil {
			replicaErr = err
			return
		}
		batch := make([]core.Feedback, len(predSamples))
		for i, s := range predSamples {
			batch[i] = core.Feedback{Point: s.Point, Plan: s.Plan, Cost: s.Cost}
		}
		leader.ApplyBatch(batch)
		var buf bytes.Buffer
		if err := leader.EncodeState(&buf); err != nil {
			replicaErr = err
			return
		}
		replicaOn, replicaErr = core.NewReplicaOnline(&buf)
	})
	if replicaErr != nil {
		b.Fatal(replicaErr)
	}
	return replicaOn, tests
}

// ReplicaPredict measures one prediction on a replica built from shipped
// state bytes: PredictModel against the published snapshot, exactly what a
// follower serves between WAL records. It shares the zero-allocation
// contract with the leader's serving path — a replica exists to absorb
// read load, so an allocation here is as much a regression as one in
// PredictModelSnapshot.
func ReplicaPredict(b *testing.B) {
	on, tests := replicaPredictEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on.PredictModel(tests[i%len(tests)])
	}
}

// MeasureReplication stands up an in-process leader/replica pair over the
// WAL substrate RunWithWAL built and measures the two numbers the report
// records: catchupMs, the wall time from replica start to full convergence
// with the leader's log (snapshot install plus backlog drain), and
// peakLag, the highest applied-record lag the replica observed while
// tailing a live 256-run write burst. Returns zeros with no error when the
// WAL substrate was never built (RunWithWAL did not run).
func MeasureReplication() (catchupMs float64, peakLag uint64, err error) {
	if walSys == nil {
		return 0, 0, nil
	}
	// Flush the applier so the log holds the acknowledged workload.
	if _, err := walSys.TemplateStats("Q1"); err != nil {
		return 0, 0, err
	}
	srv, err := replica.Serve(replica.Config{
		Addr:         "127.0.0.1:0",
		Source:       walSys,
		Heartbeat:    50 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close() //nolint:errcheck
	target := walSys.WALLastSeq()

	start := time.Now()
	rep, err := replica.Start(replica.Options{
		LeaderAddr:  srv.Addr(),
		AckInterval: 50 * time.Millisecond,
		BackoffMin:  10 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()
	converge := func(seq uint64) error {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if st.Ready() && st.ReceivedSeq() >= seq {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return fmt.Errorf("benchsuite: replica stuck at seq %d of %d", st.ReceivedSeq(), seq)
	}
	if err := converge(target); err != nil {
		return 0, 0, err
	}
	catchupMs = float64(time.Since(start).Nanoseconds()) / 1e6

	// Live tail: burst writes on the leader while sampling the replica's
	// lag gauge, then drain to convergence.
	stop := make(chan struct{})
	sampled := make(chan uint64, 1)
	go func() {
		var max uint64
		for {
			select {
			case <-stop:
				sampled <- max
				return
			default:
				if lag := st.Obs().LagRecords(); lag > max {
					max = lag
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for i := 0; i < 256; i++ {
		if _, err := walSys.Run("Q1", walVals[i%len(walVals)]); err != nil {
			close(stop)
			return 0, 0, err
		}
	}
	if _, err := walSys.TemplateStats("Q1"); err != nil {
		close(stop)
		return 0, 0, err
	}
	if err := converge(walSys.WALLastSeq()); err != nil {
		close(stop)
		return 0, 0, err
	}
	close(stop)
	peakLag = <-sampled
	return catchupMs, peakLag, nil
}
