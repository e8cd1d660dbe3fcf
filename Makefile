GO ?= go

.PHONY: tier1 build vet test race chaos crash fuzz replication bench benchcmp profile clean

# Per-target budget for the fuzz smoke (`make fuzz FUZZTIME=2m` to go deep).
FUZZTIME ?= 15s

# Benchmark pipeline knobs: `make bench` re-measures the serving-path suite
# and writes $(BENCH_OUT) with benchcmp-style deltas against $(BENCH_BASE);
# `make benchcmp OLD=a.json NEW=b.json` diffs any two stored reports.
BENCH_BASE ?= bench_baseline.json
BENCH_OUT  ?= BENCH_PR10.json

# Where `make profile` drops its pprof output.
PROFILE_DIR ?= profiles

# The gate: formatting (any file `gofmt -l` lists fails it), build, vet,
# the full test suite under the race detector, and the allocation guards (a separate non-race invocation: the race runtime's
# bookkeeping inflates allocation counts, so the guards skip themselves
# under -race). TestServingPathZeroAlloc holds predict/insert/WAL-append at
# exactly zero allocs; TestRunPathAllocBudget holds the full batched Run
# path under its 500 allocs/op budget; TestCompiledExecAllocs holds a warm
# compiled Exec to the result's own allocations (<= 3/op).
tier1:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "gofmt -l lists unformatted files:"; echo "$$files"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestServingPathZeroAlloc|TestRunPathAllocBudget|TestCompiledExecAllocs' -count=1 . ./internal/executor

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Just the fault-injection / breaker / snapshot-damage suite.
chaos:
	$(GO) test -race -run 'TestChaos|TestConcurrent|TestParallel' -v .

# The durability suite: crash-image recovery properties, degrade-to-cold
# triples, and the kill-and-restart integration test against the real
# ppcserve binary.
crash:
	$(GO) test -race -run 'TestDurable|TestCrashRecovery|TestDegrade' -v .
	$(GO) test -race -run TestKillRestartRecovery -v ./cmd/ppcserve

# Short fuzz smoke over every decoder that reads crash-shaped bytes — the
# WAL frame decoder, the WAL directory scanner/repairer, the system state
# codec (FuzzSnapshotDecode: the envelope, then the fuzzed body under a
# valid frame through the section, learner and plan-tree decoders, seeded
# from a trained, re-tuned template), and the whole learner state stream
# (FuzzStateTailDecode: predictor, counters, corrections and retune
# sections) — and over the log-apply path that shipped records take into a
# replica. Go runs one fuzz target per invocation, hence one run per target.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzStateTailDecode -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzApplyRecords -fuzztime $(FUZZTIME) ./internal/replica

# The replication suite, bottom up: wire protocol and torn/corrupt frames,
# the state codec that snapshots ship in, WAL tailing, leader/replica servers under fault injection (epoch fencing,
# admission, chaos), the client library, the in-process System-level
# contracts, and finally the process-boundary failover test — leader under
# load, replica attached, leader SIGKILLed and restarted — against the real
# ppcserve and ppcreplica binaries.
replication:
	$(GO) test -race ./internal/netproto ./internal/snapshot ./internal/replica ./pkg/client
	$(GO) test -race -run 'TestReplication|TestLeaderReplica|TestLeaderRestart' -v .
	$(GO) test -race -run TestLeaderReplicaFailover -v ./cmd/ppcreplica

# Run the go-test serving-path benchmarks with allocation accounting, then
# regenerate the machine-readable report through cmd/ppcbench.
bench:
	$(GO) test -run '^$$' -bench 'ApproxLSHHist|ModelSnapshot|Run|Replica' -benchmem .
	$(GO) run ./cmd/ppcbench -bench -baseline $(BENCH_BASE) -benchout $(BENCH_OUT)

# Benchcmp-style diff of two stored bench reports.
benchcmp:
	$(GO) run ./cmd/ppcbench -benchcmp $(OLD) $(NEW)

# CPU and heap profiles of the end-to-end Run path, for chasing where the
# serving-path time goes (`go tool pprof $(PROFILE_DIR)/run.cpu.pprof`).
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench BenchmarkEndToEndRun -benchmem \
		-cpuprofile $(PROFILE_DIR)/run.cpu.pprof \
		-memprofile $(PROFILE_DIR)/run.mem.pprof \
		-o $(PROFILE_DIR)/ppc.test .
	@echo "profiles written to $(PROFILE_DIR)/"

clean:
	$(GO) clean ./...
