// Command perfbench is the repository benchmark. It runs one workload
// against the public ppc API from a single closed-loop client — one
// goroutine that waits for each Run before sending the next — checks the
// answers, and prints every metric by name and unit. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, measured by replaying each Run's
// layer calls from outside the program.
//
// Build and run it from the repository root through run.sh, which keeps
// every build and run artefact under .bench_build:
//
//	bash perfbench/run.sh --workload hot-exec --seed 1 --seconds 10 --trace 0
//
// README.md in this directory records why each workload exists, which
// layer each metric belongs to, and the held-out seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	ppc "repro"
	"repro/internal/obsv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: hot-exec, plan-churn or durable-drift")
	seed := fl.Int64("seed", 1, "workload seed: drives the parameter streams and the TPC-H generator")
	seconds := fl.Float64("seconds", 10, "length of the timed phase, in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	work := fl.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for durability dirs and the span dump")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, err := lookupSpec(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	scratch := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	b := &bench{sp: sp, seed: *seed, seconds: *seconds, work: scratch, log: stderr}
	host := probeHost(scratch, sp.syncPolicy())
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostJSON)

	out, err := b.execute(*trace == 1, *work)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", sp.name, err)
		return 1
	}
	for _, line := range out.notes {
		fmt.Fprintf(stdout, "%s %s\n", sp.name, line)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, m := range out.metrics {
		fmt.Fprintf(stdout, "%s %-32s %14.6g %s\n", sp.name, m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// outcome is what one invocation reports.
type outcome struct {
	metrics           []metric
	notes             []string
	attempted, failed int
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: v})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// counters are the System's counters at one instant.
type counters struct {
	snap      ppc.MetricsSnapshot
	evictions int
	mem       runtime.MemStats
}

func readCounters(sys *ppc.System) (counters, error) {
	var c counters
	var err error
	c.snap, err = sys.MetricsSnapshot() // flushes every applier first
	if err != nil {
		return c, err
	}
	c.evictions = sys.CacheEvictions()
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// execute runs the workload: set-up, the timed phase, the replica and
// restart legs and, with trace, the traced pass.
func (b *bench) execute(trace bool, work string) (*outcome, error) {
	sp := b.sp
	st, err := newStream(sp, b.seed)
	if err != nil {
		return nil, err
	}
	// Allocated before set-up, so the System's heap figure excludes them.
	p := newPhase(maxTimedRuns)
	repeats := 5
	if trace {
		repeats = 1
	}
	var setups []float64
	var l *live
	for r := 0; r < repeats; r++ {
		if l != nil {
			// Drop the previous System before the next set-up measures its
			// heap baseline.
			err := l.sys.Close()
			l = nil
			if err != nil {
				return nil, err
			}
		}
		if l, err = b.setUp(st); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, l.setup().Seconds())
	}
	lg := &legs{}
	var rl *replicaLeg
	var archive *walArchive
	if sp.durable {
		if rl, err = installReplica(l.sys, lg); err != nil {
			l.sys.Close()
			return nil, err
		}
		if archive, err = startArchive(l.sys.WALDir(), filepath.Join(b.work, "wal-archive")); err != nil {
			l.sys.Close()
			return nil, err
		}
	}
	c0, err := readCounters(l.sys)
	if err != nil {
		return nil, err
	}
	b.logf("timed phase: %.0f s", b.seconds)
	err = b.timed(l.sys, st, p, sp.warmup, b.seconds, 0)
	if archive != nil && err != nil {
		archive.close()
	}
	if err != nil {
		l.sys.Close()
		return nil, err
	}
	c1, err := readCounters(l.sys)
	if err != nil {
		return nil, err
	}
	heapMB := (float64(liveHeap()) - float64(l.heapBase)) / (1 << 20)

	if sp.durable {
		if err := archive.close(); err != nil {
			l.sys.Close()
			return nil, fmt.Errorf("WAL archive: %w", err)
		}
		tail, err := b.catchUp(l.sys, rl, archive.dst, st, lg)
		if err != nil {
			l.sys.Close()
			return nil, err
		}
		batch := 1
		if w0, w1 := c0.snap.WAL, c1.snap.WAL; w1.Syncs > w0.Syncs {
			batch = max(1, int((w1.Appends-w0.Appends)/(w1.Syncs-w0.Syncs)))
		}
		dir, err := b.newDir("scratch-wal")
		if err != nil {
			return nil, err
		}
		if err := replayWAL(dir, tail, batch, lg); err != nil {
			return nil, fmt.Errorf("scratch WAL replay: %w", err)
		}
	}
	b.logf("restart leg")
	if err := b.restartLeg(l, st, p.next, lg); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}

	out := &outcome{
		attempted: p.runs() + lg.before.runs() + lg.after.runs() + lg.probes,
		failed:    p.failed() + lg.before.failed() + lg.after.failed() + len(lg.mismatches),
	}
	for _, ms := range [][]string{p.mismatches, lg.before.mismatches, lg.after.mismatches, lg.mismatches} {
		for _, m := range ms {
			b.logf("WRONG ANSWER: %s", m)
		}
	}
	b.notes(out, p, lg, setups, c0, c1)
	if !trace {
		b.endToEnd(out, p, lg, setups, heapMB)
		return out, nil
	}

	b.logf("traced pass")
	l2, err := b.setUp(st)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	rp, err := newReplayer(l2.sys, sp.templates, sp.durable)
	if err != nil {
		l2.sys.Close()
		return nil, err
	}
	m := min(p.runs()/2, 50000)
	if m < 1 {
		l2.sys.Close()
		return nil, errors.New("timed phase completed no run to trace")
	}
	tr, tracedWall, traceErrs, err := b.traced(l2.sys, st, rp, sp.warmup, m)
	if cerr := l2.sys.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out.attempted += m
	out.failed += traceErrs
	out.note("traced pass: %d requests, %d run errors", m, traceErrs)
	led := buildLedger(tr.spans)
	overhead := tracedWall.Seconds()/p.ends[m-1] - 1
	dump := filepath.Join(work, fmt.Sprintf("trace-%s.csv.gz", sp.name))
	if err := dumpSpans(dump, tr.spans); err != nil {
		return nil, err
	}
	out.note("trace: %d requests, %d spans written to %s; %d requests (%.2f%%) not fully replayable, left out of the residual",
		led.requests, len(tr.spans), dump, led.partial, 100*float64(led.partial)/float64(max(1, led.requests)))
	out.note("trace: layer replays run on warm caches (the replayer's own memos, compiled plans and arenas), so layer times are warm-cache times")
	b.perLayer(out, p, lg, l2, rp, &led, overhead, c0, c1)
	return out, nil
}

// notes prints the context every result carries beside its metrics.
func (b *bench) notes(out *outcome, p *phase, lg *legs, setups []float64, c0, c1 counters) {
	s := p.sorted()
	q, v, ok := tailPercentile(s)
	out.note("timed phase: %d runs in %.3f s of active time; one closed-loop client", p.runs(), p.active.Seconds())
	p50, p99, rate := p.windows(timedWindows)
	out.note("run_p50_us = %.3f us, run_p99_us = %.3f us, runs_per_s = %.1f 1/s: medians over %d equal stretches of the timed phase (p99 and throughput are printed, not gated; see README.md)",
		p50, p99, rate, timedWindows)
	if ok {
		out.note("latency: n=%d p50=%.2f us, highest tail with >=10 samples beyond it: p%g=%.2f us", len(s), percentile(s, 0.5), q*100, v)
	}
	if len(s) < 1000 {
		out.note("latency: fewer than 1000 samples, so run_p99_us has under ten samples beyond it")
	}
	out.note("failed_frac = %d/%d = %.6f (run errors, wrong answers and probe mismatches)",
		out.failed, out.attempted, float64(out.failed)/float64(max(1, out.attempted)))
	out.note("answer checks: %d sampled runs (every %d-th request), %d mismatches; plan regret over %d samples",
		p.checks+lg.before.checks+lg.after.checks, b.sp.sampleEvery,
		len(p.mismatches)+len(lg.before.mismatches)+len(lg.after.mismatches), len(p.regret))
	out.note("invariants: %d probe comparisons, %d mismatches", lg.probes, len(lg.mismatches))
	out.note("setup_s repeats: %v", setups)
	var enq, deferred uint64
	for i, t1 := range c1.snap.Templates {
		enq += t1.Counters.FeedbackEnqueued - c0.snap.Templates[i].Counters.FeedbackEnqueued
		deferred += t1.Counters.FeedbackDeferred - c0.snap.Templates[i].Counters.FeedbackDeferred
	}
	out.note("feedback: %d points queued to the appliers, %d applied on the serving goroutine (mailbox full)", enq, deferred)
	if w0, w1 := c0.snap.WAL, c1.snap.WAL; w0 != nil && w1 != nil {
		n := w1.FsyncLatency.Count - w0.FsyncLatency.Count
		sum := w1.FsyncLatency.SumNanos - w0.FsyncLatency.SumNanos
		out.note("wal: %d fsyncs, mean %.1f us; %d checkpoints, mean %.1f ms", n, float64(sum)/float64(max(1, n))/1e3,
			w1.Checkpoints-w0.Checkpoints, float64(w1.CheckpointLatency.SumNanos-w0.CheckpointLatency.SumNanos)/float64(max(1, w1.Checkpoints-w0.Checkpoints))/1e6)
	}
	if b.sp.durable {
		out.note("replica_catchup_s = %.6f s (%d WAL records applied through wal.Follower)", lg.catchup.Seconds(), lg.applied)
		out.note("restart: Open on a crash image of the live durability directory, then Register")
	} else {
		out.note("replica_catchup_s: not applicable (replication needs durability)")
		out.note("restart: Open, LoadState of a SaveState snapshot, then Register")
	}
	if after := lg.after.sorted(); len(after) > 0 && len(s) > 0 {
		out.note("restart_run_p50_us / run_p50_us = %.2f", percentile(after, 0.5)/percentile(s, 0.5))
	}
}

// timedWindows is how many equal stretches of active time the timed phase is
// cut into; the latency percentiles and the throughput are each stretch's
// figure, medianed over the stretches, so a short burst of load from
// elsewhere on the host moves one stretch and not the result. Ten one-second
// stretches each hold one checkpoint cycle on durable-drift.
const timedWindows = 10

// endToEnd adds the metrics a user of the System sees.
func (b *bench) endToEnd(out *outcome, p *phase, lg *legs, setups []float64, heapMB float64) {
	p50, _, _ := p.windows(timedWindows)
	out.add("setup_s", "s", median(setups))
	out.add("run_p50_us", "us", p50)
	out.add("optimizer_frac", "ratio", float64(p.invoked)/float64(max(1, p.runs())))
	out.add("plan_regret_mean", "ratio", mean(p.regret))
	out.add("heap_mb", "MiB", heapMB)
	restart := make([]float64, len(lg.restart))
	for i, d := range lg.restart {
		restart[i] = d.Seconds()
	}
	out.add("restart_s", "s", median(restart))
	out.add("restart_run_p50_us", "us", percentile(lg.after.sorted(), 0.5))
}

// perLayer adds the per-layer metrics: timings of the replayed layer calls
// from the traced pass, the System's own counters over the untraced timed
// phase, and the timings of the legs after it.
func (b *bench) perLayer(out *outcome, p *phase, lg *legs, l2 *live, rp *replayer, led *ledger, overhead float64, c0, c1 counters) {
	runs := float64(max(1, p.runs()))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	_, p99, rate := p.windows(timedWindows)
	out.add("ppc.run_p99_us", "us", p99)
	out.add("ppc.runs_per_s", "1/s", rate)
	out.add("ppc.open_ms", "ms", ms(l2.open))
	out.add("ppc.register_ms", "ms", ms(l2.register))
	out.add("candidates.generate_ms", "ms", ms(rp.genTime))
	out.add("optimizer.instantiate_us", "us", led.meanUs(spInstantiate))
	out.add("core.predict_us", "us", led.meanUs(spPredict))
	out.add("optimizer.rebind_us", "us", led.meanUs(spRebind))
	out.add("optimizer.attribute_us", "us", led.meanUs(spAttribute))
	out.add("candidates.route_us", "us", led.meanUs(spRoute))
	out.add("optimizer.optimize_us", "us", led.meanUs(spOptimize))
	out.add("executor.exec_us", "us", led.meanUs(spExec))
	out.add("executor.compile_us", "us", led.meanUs(spCompile))

	var d struct {
		runs, nulls, enq, deferred, retune, memo, routed, invocations uint64
	}
	qerr := make(map[float64]uint64)
	var qmax float64
	for i, t1 := range c1.snap.Templates {
		t0 := c0.snap.Templates[i]
		a, z := t0.Counters, t1.Counters
		d.runs += z.Runs - a.Runs
		d.nulls += z.NullPredictions - a.NullPredictions
		d.enq += z.FeedbackEnqueued - a.FeedbackEnqueued
		d.deferred += z.FeedbackDeferred - a.FeedbackDeferred
		d.retune += z.RetuneEpoch - a.RetuneEpoch
		d.memo += z.MemoInvalidations - a.MemoInvalidations
		d.routed += z.CandidateRouted - a.CandidateRouted
		d.invocations += z.OptimizerInvocations - a.OptimizerInvocations
		qmax = max(qmax, t1.EstimationQError.Max)
		for _, bk := range t1.EstimationQError.Buckets {
			qerr[bk.Upper] += bk.Count
		}
		for _, bk := range t0.EstimationQError.Buckets {
			qerr[bk.Upper] -= bk.Count
		}
	}
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out.add("core.null_frac", "ratio", frac(d.nulls, d.runs))
	out.add("plancache.hit_frac", "ratio", float64(p.hits)/runs)
	out.add("plancache.evictions_per_krun", "count/krun", float64(c1.evictions-c0.evictions)*1000/runs)
	out.add("core.feedback_deferred_frac", "ratio", frac(d.deferred, d.enq+d.deferred))
	out.add("core.retune_epochs", "count", float64(d.retune))
	out.add("stats.qerror_p95", "ratio", qerrQuantile(qerr, qmax, 0.95))
	out.add("stats.memo_invalidations", "count", float64(d.memo))
	out.add("candidates.routed_frac", "ratio", frac(d.routed, d.invocations))

	var w0, w1 obsv.WALSnapshot
	if c0.snap.WAL != nil && c1.snap.WAL != nil {
		w0, w1 = *c0.snap.WAL, *c1.snap.WAL
	}
	out.add("wal.records_per_run", "count/run", float64(w1.Appends-w0.Appends)/runs)
	out.add("wal.bytes_per_run", "B/run", float64(w1.AppendBytes-w0.AppendBytes)/runs)
	out.add("wal.fsyncs_per_run", "count/run", float64(w1.Syncs-w0.Syncs)/runs)
	perCall := func(total time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total.Nanoseconds()) / float64(n) / 1e3
	}
	out.add("wal.append_us", "us", perCall(lg.walAppend, lg.walAppends))
	out.add("wal.commit_us", "us", perCall(lg.walCommit, lg.walCommits))
	ckpts := w1.Checkpoints - w0.Checkpoints
	ckptNs := w1.CheckpointLatency.SumNanos - w0.CheckpointLatency.SumNanos
	out.add("durability.checkpoint_ms", "ms", float64(ckptNs)/float64(max(1, ckpts))/1e6)
	out.add("durability.recovery_ms", "ms", ms(lg.recovery))
	out.add("durability.replayed_records", "count", float64(lg.replayed))
	out.add("persist.snapshot_kb", "KiB", float64(lg.snapshotBytes)/1024)
	out.add("replica.install_ms", "ms", ms(lg.replicaInstall))
	out.add("replica.apply_us_per_record", "us", perCall(lg.applyTime, lg.applied))
	out.add("replica.catchup_s", "s", lg.catchup.Seconds())
	mallocs := float64(c1.mem.Mallocs-c0.mem.Mallocs) - float64(p.checkMallocs)
	out.add("go.allocs_per_run", "count/run", mallocs/runs)
	out.add("go.gc_pause_ms", "ms", float64(c1.mem.PauseTotalNs-c0.mem.PauseTotalNs)/1e6)
	out.add("ledger.residual_frac", "ratio", led.residualFrac)
	out.add("trace.overhead_frac", "ratio", overhead)
}

// qerrQuantile reads a quantile off merged q-error histogram bucket counts;
// maxQ stands in for the overflow bucket.
func qerrQuantile(counts map[float64]uint64, maxQ, q float64) float64 {
	snap := obsv.QHistSnapshot{Max: maxQ}
	for upper, n := range counts {
		if n > 0 {
			snap.Buckets = append(snap.Buckets, obsv.QHistBucket{Upper: upper, Count: n})
			snap.Count += n
		}
	}
	// Ascending bounds, with the unbounded overflow bucket (upper 0) last.
	sort.Slice(snap.Buckets, func(i, j int) bool {
		a, b := snap.Buckets[i].Upper, snap.Buckets[j].Upper
		if a == 0 || b == 0 {
			return b == 0 && a != 0
		}
		return a < b
	})
	return snap.Quantile(q)
}
