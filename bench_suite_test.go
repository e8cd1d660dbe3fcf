package ppc_test

// go-test entry points for the serving-path benchmark suite. The bodies
// live in internal/benchsuite so cmd/ppcbench -bench measures exactly the
// same code via testing.Benchmark; this file is in the external test
// package because benchsuite imports repro.
//
//	go test -bench='Run|ApproxLSHHist' -benchmem
//	go test -bench=BenchmarkRunParallel -cpu 4

import (
	"testing"

	"repro/internal/benchsuite"
)

func BenchmarkPredictApproxLSHHist(b *testing.B) { benchsuite.PredictApproxLSHHist(b) }
func BenchmarkPredictModelSnapshot(b *testing.B) { benchsuite.PredictModelSnapshot(b) }
func BenchmarkInsertApproxLSHHist(b *testing.B)  { benchsuite.InsertApproxLSHHist(b) }
func BenchmarkEndToEndRun(b *testing.B)          { benchsuite.EndToEndRun(b) }
func BenchmarkRunMixedSerial(b *testing.B)       { benchsuite.RunMixedSerial(b) }

// BenchmarkRestoredHit is BenchmarkEndToEndRun on a System restored from
// the warm one through SaveState/LoadState. Restored plans are compiled
// like live ones, so the two agree within run-to-run spread.
func BenchmarkRestoredHit(b *testing.B) { benchsuite.RestoredHit(b) }

// BenchmarkRebindCachedPlan isolates the cache-hit rebind: re-costing a
// cached plan's rebind program at fresh parameter values, O(params) work
// with no prediction or execution attached.
func BenchmarkRebindCachedPlan(b *testing.B) { benchsuite.RebindCachedPlan(b) }

// BenchmarkRunWithWAL is BenchmarkEndToEndRun on a durability-enabled
// System: the same steady-state Q1 workload with every validated feedback
// point logged to the WAL (SyncInterval group commit). The ratio against
// BenchmarkEndToEndRun is the serving-path cost of durability.
func BenchmarkRunWithWAL(b *testing.B) { benchsuite.RunWithWAL(b) }

// BenchmarkRunParallel serves the mixed four-template workload from
// GOMAXPROCS goroutines, each pinned to one template. Against
// BenchmarkRunMixedSerial it measures the scaling the sharded per-template
// locks provide; on a single-CPU host the two coincide.
func BenchmarkRunParallel(b *testing.B) { benchsuite.RunParallel(b) }

// BenchmarkRunHotTemplateParallel serves ONE template from GOMAXPROCS
// goroutines — the contention pattern per-template sharding cannot help
// with. Against BenchmarkEndToEndRun it measures the scaling of the
// lock-free snapshot serving path introduced in PR 4.
func BenchmarkRunHotTemplateParallel(b *testing.B) { benchsuite.RunHotTemplateParallel(b) }

// BenchmarkReplicaPredict measures the follower's serving path: one
// prediction on a replica decoded from shipped state bytes, against the
// same trained Q1 synopsis the predictor microbenchmarks use. Part of the
// zero-allocation guard — replicas exist to absorb read load.
func BenchmarkReplicaPredict(b *testing.B) { benchsuite.ReplicaPredict(b) }
