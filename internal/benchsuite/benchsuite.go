// Package benchsuite holds the serving-path benchmark bodies shared by the
// go-test wrappers (bench_suite_test.go at the repo root) and the
// machine-readable pipeline (cmd/ppcbench -bench). Each body is an ordinary
// benchmark function so `go test -bench` and testing.Benchmark measure
// exactly the same code.
//
// The suite covers the hot path of the paper's architecture at three
// granularities: the predictor in isolation (Predict/Insert on the
// LSH+histogram synopsis), the facade's full Run path on one template, and
// the same Run path serialized vs. parallel across a mixed-template
// workload — the last pair is what the sharded lock design is for.
package benchsuite

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	ppc "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
	"repro/internal/wal"
	"repro/internal/workload"
)

// runTemplates is the mixed workload served by the Run benchmarks: four
// templates with disjoint learners contending only on the shared plan
// cache.
var runTemplates = []string{"Q0", "Q1", "Q2", "Q3"}

// --- Predictor microbenchmark substrate ------------------------------------

var (
	predOnce    sync.Once
	predErr     error
	predEnv     *experiments.Env
	predHist    *core.ApproxLSHHist
	predSamples []cluster.Sample
	predTests   [][]float64
)

// predictorEnv trains the LSH+histogram predictor once on the paper's
// running-example template (Q1) and keeps it for every suite invocation.
func predictorEnv(b *testing.B) (*core.ApproxLSHHist, [][]float64) {
	b.Helper()
	predOnce.Do(func() {
		env, err := experiments.NewEnv(1000, 2012)
		if err != nil {
			predErr = err
			return
		}
		predEnv = env
		tmpl := env.Templates["Q1"]
		oracle := experiments.NewOracle(env, tmpl)
		samples, err := oracle.SamplePlanSpace(3200, 3)
		if err != nil {
			predErr = err
			return
		}
		cfg := core.Config{Dims: tmpl.Degree(), Radius: 0.05, Gamma: 0.7, NoiseElimination: true, Seed: 5}
		predHist = core.MustNewApproxLSHHist(cfg)
		predSamples = samples
		for _, s := range samples {
			predHist.Insert(s)
		}
		predTests = workload.Uniform(tmpl.Degree(), 512, 11)
	})
	if predErr != nil {
		b.Fatal(predErr)
	}
	return predHist, predTests
}

// PredictApproxLSHHist measures one plan-cache lookup decision: O(t·log b_h)
// per prediction (Table I row 4). The PR 2 serving path keeps this
// allocation-free via per-predictor scratch buffers.
func PredictApproxLSHHist(b *testing.B) {
	hist, tests := predictorEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist.Predict(tests[i%len(tests)])
	}
}

// PredictModelSnapshot measures the PR 4 lock-free serving path in
// isolation: Predict against an immutable frozen Model snapshot with a
// pooled scratch buffer, exactly as Online.StepConcurrent serves it. Like
// PredictApproxLSHHist it must stay allocation-free — the pool amortizes
// the scratch allocation away in steady state.
func PredictModelSnapshot(b *testing.B) {
	hist, tests := predictorEnv(b)
	model := hist.Freeze()
	cfg := hist.Config()
	pool := sync.Pool{New: func() any { return core.NewPredictScratch(cfg) }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := pool.Get().(*core.PredictScratch)
		model.PredictWithCost(tests[i%len(tests)], sc)
		pool.Put(sc)
	}
}

// InsertApproxLSHHist measures the online insertion path (Section IV-D
// feedback).
func InsertApproxLSHHist(b *testing.B) {
	env := mustSharedEnv(b)
	tmpl := env.Templates["Q1"]
	hist := core.MustNewApproxLSHHist(core.Config{Dims: tmpl.Degree(), Seed: 5})
	points := workload.Uniform(tmpl.Degree(), 4096, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[i%len(points)]
		hist.Insert(cluster.Sample{Point: p, Plan: i % 7, Cost: float64(i % 100)})
	}
}

// mustSharedEnv returns the lazily built experiment substrate.
func mustSharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	predictorEnv(b)
	return predEnv
}

// ServingMetrics returns the observability snapshot of the shared Run-path
// System, and false if no Run benchmark has built it yet. Attaching it to a
// report answers the "what did the workload actually look like" questions a
// bare ns/op can't — hit rates, degraded runs, breaker trips — for the same
// process whose latencies the report records.
func ServingMetrics() (*ppc.MetricsSnapshot, bool) {
	if runSys == nil {
		return nil, false
	}
	snap, err := runSys.MetricsSnapshot()
	if err != nil {
		return nil, false
	}
	return &snap, true
}

// AdaptiveStatsSummary merges the Run substrate's per-template estimation
// q-error histograms and memo-invalidation counters into the report's
// top-level adaptive-statistics numbers. Zeroes when no Run benchmark has
// built the shared System (q-errors are only observed on executed runs).
func AdaptiveStatsSummary() (p50, p95 float64, memoInvalidations uint64) {
	snap, ok := ServingMetrics()
	if !ok {
		return 0, 0, 0
	}
	var merged obsv.QHistSnapshot
	for _, t := range snap.Templates {
		merged = merged.Merge(t.EstimationQError)
		memoInvalidations += t.Counters.MemoInvalidations
	}
	return merged.Quantile(0.50), merged.Quantile(0.95), memoInvalidations
}

// --- End-to-end Run substrate ----------------------------------------------

var (
	runOnce sync.Once
	runErr  error
	runSys  *ppc.System
	runVals map[string][][]float64
)

// runEnv opens one System, registers the mixed-template workload, and warms
// each template's learner and the shared plan cache so the benchmarks
// measure steady state (cache hits plus the occasional audit).
func runEnv(b *testing.B) (*ppc.System, map[string][][]float64) {
	b.Helper()
	runOnce.Do(func() {
		sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}})
		if err != nil {
			runErr = err
			return
		}
		vals := make(map[string][][]float64, len(runTemplates))
		for _, d := range queries.Defs {
			name := d.Name
			keep := false
			for _, want := range runTemplates {
				if name == want {
					keep = true
				}
			}
			if !keep {
				continue
			}
			if err := sys.Register(name, d.SQL); err != nil {
				runErr = err
				return
			}
			tmpl, err := sys.Template(name)
			if err != nil {
				runErr = err
				return
			}
			points := workload.MustTrajectories(workload.TrajectoryConfig{
				Dims: tmpl.Degree(), NumPoints: 512, Sigma: 0.01, Seed: 3,
			})
			pv := make([][]float64, len(points))
			for i, p := range points {
				inst, err := sys.Optimizer().InstanceAt(tmpl, p)
				if err != nil {
					runErr = err
					return
				}
				pv[i] = inst.Values
			}
			vals[name] = pv
			// Warm the learner so the benchmark reflects steady state.
			for i := 0; i < 64; i++ {
				if _, err := sys.Run(name, pv[i%len(pv)]); err != nil {
					runErr = err
					return
				}
			}
		}
		runSys, runVals = sys, vals
	})
	if runErr != nil {
		b.Fatal(runErr)
	}
	return runSys, runVals
}

// EndToEndRun measures the facade's full Run path (predict or optimize,
// rebind, execute) in steady state on a single template.
func EndToEndRun(b *testing.B) {
	sys, vals := runEnv(b)
	pts := vals["Q1"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run("Q1", pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	restoredOnce sync.Once
	restoredErr  error
	restoredSys  *ppc.System
)

// restoredEnv restores runEnv's warm System into a fresh one through
// SaveState and LoadState: the plan cache, learners and candidate sets a
// restart brings back.
func restoredEnv(b *testing.B) (*ppc.System, map[string][][]float64) {
	b.Helper()
	warm, vals := runEnv(b)
	restoredOnce.Do(func() {
		var buf bytes.Buffer
		if err := warm.SaveState(&buf); err != nil {
			restoredErr = err
			return
		}
		sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}})
		if err != nil {
			restoredErr = err
			return
		}
		if err := sys.LoadState(&buf); err != nil {
			restoredErr = err
			return
		}
		restoredSys = sys
	})
	if restoredErr != nil {
		b.Fatal(restoredErr)
	}
	return restoredSys, vals
}

// RestoredHit is EndToEndRun on a System restored from the warm one's
// saved state: restored plans serve on the same compiled path as live
// ones, so the two should agree within run-to-run spread.
func RestoredHit(b *testing.B) {
	sys, vals := restoredEnv(b)
	pts := vals["Q1"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run("Q1", pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durable Run substrate -------------------------------------------------

var (
	walOnce sync.Once
	walErr  error
	walSys  *ppc.System
	walDir  string
	walVals [][]float64
)

// walEnv opens a second System identical to runEnv's but with durability
// enabled — every validated feedback point is WAL-logged before it is
// acknowledged — and warms Q1 the same way, so RunWithWAL over EndToEndRun
// isolates the logging cost. SyncInterval is the production-representative
// policy (group commit amortized across a fsync window); the checkpointer
// is off so the log keeps growing and MeasureRecovery has a tail to replay.
func walEnv(b *testing.B) (*ppc.System, [][]float64) {
	b.Helper()
	walOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ppcbench-wal-")
		if err != nil {
			walErr = err
			return
		}
		walDir = dir
		sys, err := ppc.Open(ppc.Options{
			TPCH: tpch.Config{Scale: 2000, Seed: 5},
			Durability: ppc.Durability{
				Dir:                 dir,
				Sync:                wal.SyncInterval,
				DisableCheckpointer: true,
			},
		})
		if err != nil {
			walErr = err
			return
		}
		sql, ok := defSQL("Q1")
		if !ok {
			walErr = fmt.Errorf("benchsuite: no Q1 definition")
			return
		}
		if err := sys.Register("Q1", sql); err != nil {
			walErr = err
			return
		}
		tmpl, err := sys.Template("Q1")
		if err != nil {
			walErr = err
			return
		}
		points := workload.MustTrajectories(workload.TrajectoryConfig{
			Dims: tmpl.Degree(), NumPoints: 512, Sigma: 0.01, Seed: 3,
		})
		vals := make([][]float64, len(points))
		for i, p := range points {
			inst, err := sys.Optimizer().InstanceAt(tmpl, p)
			if err != nil {
				walErr = err
				return
			}
			vals[i] = inst.Values
		}
		for i := 0; i < 64; i++ {
			if _, err := sys.Run("Q1", vals[i%len(vals)]); err != nil {
				walErr = err
				return
			}
		}
		walSys, walVals = sys, vals
	})
	if walErr != nil {
		b.Fatal(walErr)
	}
	return walSys, walVals
}

// RunWithWAL is EndToEndRun with durability enabled: the same steady-state
// Q1 workload on a System whose feedback applier logs every validated point
// to the WAL. Its ns/op over EndToEndRun's is the report's wal_overhead —
// the end-to-end price of durability on the serving path. The predict path
// itself never touches the log (appends happen on the background applier),
// so the overhead shows up as applier backpressure, not per-Run fsyncs.
func RunWithWAL(b *testing.B) {
	sys, pts := walEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run("Q1", pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// MeasureRecovery times crash recovery over the WAL that RunWithWAL wrote:
// it snapshots the durability directory (copying files mid-append is a
// faithful crash image — a partial trailing record is exactly a torn tail),
// opens a fresh System over the copy, registers the template so the held
// records replay, and reports the recovery wall time in milliseconds along
// with the number of records replayed. Returns 0, 0 with no error when the
// WAL substrate was never built (RunWithWAL did not run).
func MeasureRecovery() (ms float64, replayed int, err error) {
	if walSys == nil || walDir == "" {
		return 0, 0, nil
	}
	// Flush the applier so the log holds the acknowledged workload.
	if _, err := walSys.TemplateStats("Q1"); err != nil {
		return 0, 0, err
	}
	dst, err := os.MkdirTemp("", "ppcbench-recover-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dst) //nolint:errcheck
	if err := copyTree(walDir, dst); err != nil {
		return 0, 0, err
	}
	sys, err := ppc.Open(ppc.Options{
		TPCH: tpch.Config{Scale: 2000, Seed: 5},
		Durability: ppc.Durability{
			Dir:                 dst,
			DisableCheckpointer: true,
		},
	})
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close() //nolint:errcheck
	sql, ok := defSQL("Q1")
	if !ok {
		return 0, 0, fmt.Errorf("benchsuite: no Q1 definition")
	}
	if err := sys.Register("Q1", sql); err != nil {
		return 0, 0, err
	}
	rep := sys.LoadStateReport()
	if rep == nil {
		return 0, 0, fmt.Errorf("benchsuite: recovery produced no LoadReport")
	}
	return float64(rep.RecoveryDuration.Nanoseconds()) / 1e6, rep.WALReplayed, nil
}

// WALAppend measures the log's append path in isolation: encode one frame
// into the log's reused scratch buffer and write it to the current segment
// (SyncNever — fsync cost is Commit's, measured by RunWithWAL end to end).
// The append runs under the learner's write lock in production, so it must
// stay allocation-free: it is part of the zero-alloc guard.
func WALAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "ppcbench-walappend-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	log, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever, SegmentBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close() //nolint:errcheck
	rec := wal.Record{Epoch: 1, Template: "Q1", Plan: 3, Cost: 1.5, Point: []float64{0.25, 0.3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

// defSQL returns the SQL of a standard template definition.
func defSQL(name string) (string, bool) {
	for _, d := range queries.Defs {
		if d.Name == name {
			return d.SQL, true
		}
	}
	return "", false
}

// copyTree copies a directory tree of regular files (the durability layout
// has no symlinks or special files).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close() //nolint:errcheck
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close() //nolint:errcheck
			return err
		}
		return out.Close()
	})
}

// RunMixedSerial is the serial baseline for RunParallel: the same mixed
// four-template workload issued from one goroutine.
func RunMixedSerial(b *testing.B) {
	sys, vals := runEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := runTemplates[i%len(runTemplates)]
		pts := vals[name]
		if _, err := sys.Run(name, pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// RunHotTemplateParallel hammers ONE template (Q1) from GOMAXPROCS
// goroutines — the worst case for any per-template lock, and the case the
// PR 4 read/write split is for. With the PR 3 per-template mutex every
// goroutine serialized on Q1's learner lock, so this benchmark could not
// beat EndToEndRun; with lock-free predict on an immutable model snapshot
// it scales with GOMAXPROCS. Compare its ns/op against EndToEndRun (the
// serial single-template baseline): the ratio is the hot_template_speedup
// the report records.
func RunHotTemplateParallel(b *testing.B) {
	sys, vals := runEnv(b)
	pts := vals["Q1"]
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine point offset so lanes walk different parts of the
		// trajectory instead of lock-stepping on identical parameters.
		i := int(next.Add(1)) * 131
		for pb.Next() {
			if _, err := sys.Run("Q1", pts[i%len(pts)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// RunParallel issues the mixed-template workload from GOMAXPROCS
// goroutines, each pinned to one template — the access pattern the
// per-template locks are sharded for. Compare its ns/op against
// RunMixedSerial: with the old global mutex the two were equal by
// construction; with sharded locks the parallel form scales with the
// number of distinct templates (up to GOMAXPROCS).
func RunParallel(b *testing.B) {
	sys, vals := runEnv(b)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lane := int(next.Add(1)-1) % len(runTemplates)
		name := runTemplates[lane]
		pts := vals[name]
		i := 0
		for pb.Next() {
			if _, err := sys.Run(name, pts[i%len(pts)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// --- Rebind microbenchmark substrate ---------------------------------------

var (
	rebindOnce sync.Once
	rebindErr  error
	rebindOpt  *optimizer.Optimizer
	rebindProg *optimizer.RebindProgram
	rebindVals [][]float64
)

// rebindEnv compiles one Q1 plan into a rebind program and prepares a
// trajectory of instance values to probe it with.
func rebindEnv(b *testing.B) (*optimizer.RebindProgram, [][]float64) {
	b.Helper()
	rebindOnce.Do(func() {
		env, err := experiments.NewEnv(2000, 5)
		if err != nil {
			rebindErr = err
			return
		}
		tmpl := env.Templates["Q1"]
		inst, err := env.Opt.InstanceAt(tmpl, []float64{0.4, 0.4})
		if err != nil {
			rebindErr = err
			return
		}
		plan, err := env.Opt.OptimizeInstance(inst)
		if err != nil {
			rebindErr = err
			return
		}
		prog, err := env.Opt.CompileRebind(tmpl.Query, plan)
		if err != nil {
			rebindErr = err
			return
		}
		points := workload.MustTrajectories(workload.TrajectoryConfig{
			Dims: tmpl.Degree(), NumPoints: 256, Sigma: 0.01, Seed: 11,
		})
		vals := make([][]float64, len(points))
		for i, p := range points {
			pi, err := env.Opt.InstanceAt(tmpl, p)
			if err != nil {
				rebindErr = err
				return
			}
			vals[i] = pi.Values
		}
		rebindOpt, rebindProg, rebindVals = env.Opt, prog, vals
	})
	if rebindErr != nil {
		b.Fatal(rebindErr)
	}
	return rebindProg, rebindVals
}

// RebindCachedPlan measures the memoized rebind in isolation: the
// O(params) work a cache hit performs to re-cost its cached plan at fresh
// parameter values, with no prediction or execution attached. This is the
// piece PR 7 turned from a full plan-tree clone into a pooled in-place
// bind, so it gets its own line in the report (rebind_ns).
func RebindCachedPlan(b *testing.B) {
	prog, vals := rebindEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Recost(rebindOpt, vals[i%len(vals)]); err != nil {
			b.Fatal(err)
		}
	}
}
