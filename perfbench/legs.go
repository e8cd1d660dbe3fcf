package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	ppc "repro"
	"repro/internal/netproto"
	"repro/internal/replica"
	"repro/internal/wal"
)

const (
	// restartRepeats is how many times the restart is measured; the
	// reported restart_s is their median and the last restart serves the
	// continued stream.
	restartRepeats = 5
	// restartRuns is the length of the continued stream after the restart,
	// which starts at the next stream chunk so that every run continues
	// from the same point of the drift cycle.
	restartRuns = 6000
	// maxRotationRuns bounds the requests the durable workload runs after
	// the timed phase, waiting for the WAL to start a new segment.
	maxRotationRuns = 200000
	// probesPerTemplate sizes the fixed probe set of the invariant checks.
	probesPerTemplate = 64
	// walReplayMax caps the records replayed onto the scratch log.
	walReplayMax = 4096
	// followBatch is the records per follower poll: the ship server's
	// default frame size (replica.Config.BatchMax), so the catch-up reads the
	// log the way a networked replica is fed.
	followBatch = 512
)

// legs holds what the steps after the timed phase measured.
type legs struct {
	snapshotBytes int
	restart       []time.Duration
	before        *phase // requests between the timed phase and the crash image
	after         *phase // the continued stream after the restart
	recovery      time.Duration
	replayed      int
	// replica leg (durable workload only)
	replicaInstall time.Duration
	catchup        time.Duration
	applyTime      time.Duration
	applied        int
	// scratch-log replay of the timed phase's own WAL records
	walAppend, walCommit   time.Duration
	walAppends, walCommits int
	probes                 int
	mismatches             []string
}

// replicaLeg is a replica installed from a leader snapshot before the timed
// phase, in this process.
type replicaLeg struct {
	state   *replica.State
	baseSeq uint64
}

// walArchive hard-links each WAL segment of a live System into its own
// directory as the segment appears, the way a WAL archive keeps segments
// for standbys: checkpoint compaction then cannot delete the tail the
// replica catches up on, and the System keeps its default segment size.
type walArchive struct {
	src, dst string
	stop     chan struct{}
	done     chan struct{}
	err      error // first link failure; read after done closes
}

// startArchive links the segments present now, then keeps linking new ones
// until close.
func startArchive(src, dst string) (*walArchive, error) {
	a := &walArchive{src: src, dst: dst, stop: make(chan struct{}), done: make(chan struct{})}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return nil, err
	}
	if err := a.link(); err != nil {
		return nil, err
	}
	go func() {
		defer close(a.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-tick.C:
				if err := a.link(); err != nil && a.err == nil {
					a.err = err
				}
			}
		}
	}()
	return a, nil
}

func (a *walArchive) link() error {
	segs, err := walSegments(a.src)
	if err != nil {
		return err
	}
	for _, name := range segs {
		err := os.Link(filepath.Join(a.src, name), filepath.Join(a.dst, name))
		if err != nil && !errors.Is(err, fs.ErrExist) && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// close stops the linking goroutine, links once more and reports the first
// failure.
func (a *walArchive) close() error {
	close(a.stop)
	<-a.done
	if a.err != nil {
		return a.err
	}
	return a.link()
}

func installReplica(sys *ppc.System, lg *legs) (*replicaLeg, error) {
	snap, err := sys.ReplicationSnapshot()
	if err != nil {
		return nil, fmt.Errorf("replication snapshot: %w", err)
	}
	rs := replica.NewState(nil)
	t0 := time.Now()
	if err := rs.Install(snap); err != nil {
		return nil, fmt.Errorf("replica install: %w", err)
	}
	lg.replicaInstall = time.Since(t0)
	return &replicaLeg{state: rs, baseSeq: snap.BaseSeq}, nil
}

// catchUp has the replica apply the leader's WAL tail through a follower on
// the archive, then checks that its answers on the probe set equal the
// leader's. It returns the first walReplayMax records it applied.
func (b *bench) catchUp(sys *ppc.System, rl *replicaLeg, archive string, st *stream, lg *legs) ([]wal.Record, error) {
	if _, err := sys.MetricsSnapshot(); err != nil { // flush every applier
		return nil, err
	}
	target := sys.WALLastSeq()
	var kept []wal.Record
	t0 := time.Now()
	f := wal.NewFollower(archive, rl.baseSeq)
	for f.After() < target {
		recs, err := f.Poll(followBatch)
		if err != nil {
			return nil, fmt.Errorf("replica follow: %w", err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("replica follow stalled at seq %d of %d", f.After(), target)
		}
		ta := time.Now()
		rl.state.ApplyRecords(recs)
		lg.applyTime += time.Since(ta)
		lg.applied += len(recs)
		if room := walReplayMax - len(kept); room > 0 {
			kept = append(kept, recs[:min(room, len(recs))]...)
		}
	}
	lg.catchup = time.Since(t0)
	compareProbes("replica", b.ask(st, sys.PredictRPC), b.ask(st, rl.state.PredictRPC), lg)
	return kept, nil
}

// probe is one question of the fixed probe set and the answer it got.
type probe struct {
	req netproto.PredictRequest
	res netproto.PredictResult
}

// ask puts the fixed probe set to a predictor.
func (b *bench) ask(st *stream, predict func(netproto.PredictRequest) netproto.PredictResult) []probe {
	var out []probe
	for ti, pts := range st.probePoints(probesPerTemplate) {
		for k, p := range pts {
			req := netproto.PredictRequest{ID: uint64(k), Template: b.sp.templates[ti], Point: p}
			out = append(out, probe{req: req, res: predict(req)})
		}
	}
	return out
}

// compareProbes records every probe whose answer differs between two
// predictors asked the same probe set.
func compareProbes(what string, want, got []probe, lg *legs) {
	for i := range want {
		lg.probes++
		if !sameAnswer(want[i].res, got[i].res) {
			lg.mismatches = append(lg.mismatches, fmt.Sprintf("%s probe %s %v: got %s, want %s",
				what, want[i].req.Template, want[i].req.Point, answerString(got[i].res), answerString(want[i].res)))
		}
	}
}

func sameAnswer(a, b netproto.PredictResult) bool {
	return a.Status == b.Status && a.Plan == b.Plan && a.Fingerprint == b.Fingerprint &&
		a.Epoch == b.Epoch && math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence)
}

func answerString(r netproto.PredictResult) string {
	return fmt.Sprintf("{status %d plan %d conf %v epoch %d}", r.Status, r.Plan, r.Confidence, r.Epoch)
}

// restartLeg restarts the workload's System from its persisted state — Open
// on a crash image of the durability directory when durability is on, else
// Open plus LoadState of a SaveState snapshot — re-registers the templates,
// checks that the restarted System answers the probe set exactly as the live
// one did at the moment of the image, and runs the stream on from request
// from. It closes the live System before the restart.
func (b *bench) restartLeg(l *live, st *stream, from int, lg *legs) error {
	sys := l.sys
	lg.before = newPhase(0)
	if b.sp.durable {
		lg.before = newPhase(maxRotationRuns)
		// Run on until the WAL starts a new segment and cut the image right
		// there: every image then holds one full segment and a nearly empty
		// live one, whatever the timed phase left behind. (The benchmark
		// never calls Checkpoint itself while the background checkpointer
		// runs: the two collide on the checkpoint's temp file.)
		segs0, err := walSegments(sys.WALDir())
		if err != nil {
			return err
		}
		for {
			if lg.before.runs() >= maxRotationRuns {
				return fmt.Errorf("WAL did not rotate within %d requests", maxRotationRuns)
			}
			if err := b.timed(sys, st, lg.before, from, 0, lg.before.runs()+100); err != nil {
				return err
			}
			from = lg.before.next
			segs, err := walSegments(sys.WALDir())
			if err != nil {
				return err
			}
			if segs[len(segs)-1] != segs0[len(segs0)-1] {
				break
			}
		}
	}
	// The answers and the image are taken with every applier flushed and no
	// request in between, so the live answers are the image's.
	if _, err := sys.MetricsSnapshot(); err != nil {
		return err
	}
	liveAnswers := b.ask(st, sys.PredictRPC)
	var snap bytes.Buffer
	if err := sys.SaveState(&snap); err != nil {
		return fmt.Errorf("save state: %w", err)
	}
	lg.snapshotBytes = snap.Len()
	var imageDir string
	if b.sp.durable {
		dir, err := b.newDir("image")
		if err != nil {
			return err
		}
		if err := copyLiveDir(l.dir, dir); err != nil {
			return fmt.Errorf("crash image: %w", err)
		}
		imageDir = dir
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("close live system: %w", err)
	}
	for r := 0; r < restartRepeats; r++ {
		var dir string
		if b.sp.durable {
			d, err := b.newDir("restart")
			if err != nil {
				return err
			}
			if err := copyLiveDir(imageDir, d); err != nil {
				return err
			}
			dir = d
		}
		runtime.GC()
		t0 := time.Now()
		s2, err := ppc.Open(b.sp.options(b.seed, dir))
		if err != nil {
			return fmt.Errorf("restart open: %w", err)
		}
		var load time.Duration
		if !b.sp.durable {
			tl := time.Now()
			if err := s2.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
				s2.Close()
				return fmt.Errorf("restart load: %w", err)
			}
			load = time.Since(tl)
		}
		if err := registerMissing(s2, b.sp.templates); err != nil {
			s2.Close()
			return err
		}
		lg.restart = append(lg.restart, time.Since(t0))
		if r < restartRepeats-1 {
			if err := s2.Close(); err != nil {
				return err
			}
			continue
		}
		if rep := s2.LoadStateReport(); rep != nil && rep.WALEnabled {
			lg.recovery, lg.replayed = rep.RecoveryDuration, rep.WALReplayed
		} else {
			lg.recovery = load
		}
		if rep := s2.LoadStateReport(); rep != nil && rep.Corrupt {
			lg.mismatches = append(lg.mismatches, "restart: state reported corrupt: "+rep.Reason)
		}
		compareProbes("restart", liveAnswers, b.ask(st, s2.PredictRPC), lg)
		lg.after = newPhase(restartRuns)
		err = b.timed(s2, st, lg.after, st.nextChunk(from), 0, restartRuns)
		if cerr := s2.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return nil
}

// walSegments lists the WAL segment files under dir, oldest first.
func walSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		// os.ReadDir sorts by name, and zero-padded sequence numbers make
		// names sort by sequence.
		if n := e.Name(); strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") {
			segs = append(segs, n)
		}
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("no WAL segment under %s", dir)
	}
	return segs, nil
}

// copyLiveDir copies a durability directory that a live System may be
// checkpointing into: a file that vanishes mid-copy (a checkpoint rename)
// restarts the copy, and checkpoint temp files are skipped.
func copyLiveDir(src, dst string) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = os.RemoveAll(dst); err != nil {
			return err
		}
		if err = copyTree(src, dst); !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return err
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if strings.HasSuffix(path, ".tmp") {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// replayWAL appends recs onto a scratch log under dir with the workload's
// sync policy, committing every batch records as the System's group commit
// does, and times each Append and Commit.
func replayWAL(dir string, recs []wal.Record, batch int, lg *legs) error {
	log, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	for i := range recs {
		rec := recs[i]
		t0 := time.Now()
		if _, err := log.Append(&rec); err != nil {
			log.Close()
			return err
		}
		lg.walAppend += time.Since(t0)
		lg.walAppends++
		if (i+1)%batch == 0 || i == len(recs)-1 {
			t1 := time.Now()
			if err := log.Commit(); err != nil {
				log.Close()
				return err
			}
			lg.walCommit += time.Since(t1)
			lg.walCommits++
		}
	}
	return log.Close()
}
