package ppc

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/lsh"
	"repro/internal/obsv"
	"repro/internal/stats"
	"repro/internal/wal"
)

// Durability configures the crash-recovery layer: a write-ahead log of
// feedback records under Dir plus periodic checkpoints that compact it.
// The zero value (empty Dir) disables durability entirely — the System
// behaves exactly as before, learned state living only in memory until an
// explicit SaveState.
//
// Layout under Dir:
//
//	checkpoint.ppc   the latest SaveState snapshot (atomically replaced)
//	wal/wal-*.log    feedback records newer than the checkpoint
//
// Recovery at Open: load the checkpoint (degrading to cold learners on
// corruption, as LoadState always has), then replay only the WAL records
// past each learner's applied-sequence watermark. Records for templates the
// checkpoint does not contain are held aside and replayed when the
// template is registered — so a corrupt checkpoint with an intact WAL
// still recovers every logged point once the application re-registers its
// templates.
type Durability struct {
	// Dir is the durability directory; empty disables the layer.
	Dir string
	// Sync is the WAL fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the fsync cadence under wal.SyncInterval (default
	// 100ms).
	SyncInterval time.Duration
	// SegmentBytes rotates WAL segments past this size (default 4 MiB).
	SegmentBytes int64
	// CheckpointInterval is the background checkpointer's cadence (default
	// 1 minute). The checkpointer calls Checkpoint: SaveState to a temp
	// file, atomic rename, then WAL compaction.
	CheckpointInterval time.Duration
	// DisableCheckpointer turns the background checkpointer off; the
	// application drives Checkpoint itself (Close still takes a final one).
	DisableCheckpointer bool
}

// defaultCheckpointInterval is the checkpointer cadence when unset.
const defaultCheckpointInterval = time.Minute

// checkpointName is the snapshot file under the durability directory.
const checkpointName = "checkpoint.ppc"

// walSink adapts one template's view of the shared WAL to the learner's
// FeedbackLogger interface. LogFeedback runs under the learner write lock
// (core.Online.applyLocked); the log serializes on its own mutex below it.
type walSink struct {
	log      *wal.Log
	template string
}

// LogFeedback appends one feedback point under the template's name.
func (w *walSink) LogFeedback(fb *core.Feedback) (uint64, error) {
	rec := wal.Record{
		Epoch:       fb.Epoch,
		Template:    w.template,
		Plan:        int64(fb.Plan),
		Cost:        fb.Cost,
		SelfLabeled: fb.SelfLabeled,
		Point:       fb.Point,
	}
	return w.log.Append(&rec)
}

// Commit is the per-batch group-commit barrier.
func (w *walSink) Commit() error { return w.log.Commit() }

// LogRetune appends one tunable-LSH retune record (core.RetuneLogger). Runs
// under the learner write lock, before the retune applies, so recovery and
// replicas see the record ordered exactly against the feedback stream — the
// order that makes the rebuilt synopsis bit-identical. The record carries
// the absolute warp grid, making replay deterministic and idempotent.
func (w *walSink) LogRetune(epoch uint64, warps [][]*lsh.Warp) (uint64, error) {
	t, s, k, flat := core.FlattenWarps(warps)
	rec := wal.Record{
		Kind:        wal.RecordRetune,
		Template:    w.template,
		RetuneEpoch: epoch,
		WarpT:       uint16(t),
		WarpS:       uint16(s),
		WarpK:       uint16(k),
		Warps:       flat,
	}
	return w.log.Append(&rec)
}

// LogCorrection appends one correction-state record (stats.CorrLogger).
// Runs under Corrections.mu — a leaf below every other lock — while the log
// serializes on its own mutex. Records carry absolute post-update state, so
// replay is idempotent by construction.
func (w *walSink) LogCorrection(rec *stats.CorrRecord) (uint64, error) {
	r := wal.Record{
		Kind:      wal.RecordCorrection,
		Template:  w.template,
		CorrEpoch: rec.Epoch,
		Site:      uint32(rec.Site),
		LogC:      rec.LogC,
		N:         rec.N,
		Ref:       rec.Ref,
	}
	return w.log.Append(&r)
}

// openDurable runs the recovery sequence for a freshly opened System:
// open (and repair) the WAL, load the latest checkpoint, replay the WAL
// tail, stash records for unregistered templates, and start the background
// checkpointer. Called from Open before the System is published, so no
// concurrent Runs exist yet.
func (s *System) openDurable() error {
	d := s.opts.Durability
	t0 := time.Now()
	s.walObs = s.obs.WAL()
	log, recov, err := wal.Open(wal.Options{
		Dir:          filepath.Join(d.Dir, "wal"),
		Sync:         d.Sync,
		SyncInterval: d.SyncInterval,
		SegmentBytes: d.SegmentBytes,
		Faults:       s.opts.Faults,
		Observer:     s.walObs,
	})
	if err != nil {
		return err
	}
	s.wal = log
	s.walPending = make(map[string][]wal.Record)
	s.corrPending = make(map[string][]stats.CorrRecord)

	// Load the latest checkpoint. A missing file is a first boot; an
	// unreadable or corrupt one degrades to cold learners (LoadState's
	// contract) and the WAL tail below recovers what it can.
	ckPath := filepath.Join(d.Dir, checkpointName)
	var report *LoadReport
	if f, oerr := os.Open(ckPath); oerr == nil {
		lerr := s.LoadState(f)
		f.Close() //nolint:errcheck
		if lerr != nil {
			return lerr // non-degradable: wrong database, non-fresh System
		}
		report = s.LoadStateReport()
	} else {
		report = &LoadReport{}
		if !os.IsNotExist(oerr) {
			report.Corrupt = true
			report.Reason = fmt.Sprintf("checkpoint: %v", oerr)
		}
		s.loadMu.Lock()
		s.lastLoad = report
		s.loadMu.Unlock()
	}
	report.WALEnabled = true
	report.WALSegments = recov.Segments
	report.WALTornBytes = recov.TornBytes
	report.WALTornSegment = recov.TornSegment
	report.WALQuarantined = recov.QuarantinedSegments
	if recov.Corrupt {
		report.Corrupt = true
		if report.Reason == "" {
			report.Reason = "wal: " + recov.Reason
		}
	}

	// Replay the tail. Records are globally ordered by sequence number;
	// grouping by template preserves each learner's relative order, which
	// is the only order that matters (learners share no state). Feedback and
	// retune records stay interleaved within a template's stream — a retune
	// record is a barrier, and replayRecords flushes the feedback batch at
	// each one so the rebuilt synopsis matches the leader's bit for bit.
	// Correction records ride the same log under their own kind and replay
	// into the template's correction state rather than its learner
	// (order-independent: they carry absolute post-update state).
	byTemplate := make(map[string][]wal.Record)
	corrByTemplate := make(map[string][]stats.CorrRecord)
	for _, r := range recov.Records {
		if r.Kind == wal.RecordCorrection {
			corrByTemplate[r.Template] = append(corrByTemplate[r.Template], stats.CorrRecord{
				Seq:   r.Seq,
				Epoch: r.CorrEpoch,
				Site:  int(r.Site),
				LogC:  r.LogC,
				N:     r.N,
				Ref:   r.Ref,
			})
			continue
		}
		byTemplate[r.Template] = append(byTemplate[r.Template], r)
	}
	s.regMu.RLock()
	states := make(map[string]*templateState, len(s.templates))
	for n, st := range s.templates {
		states[n] = st
	}
	s.regMu.RUnlock()
	for name, recs := range byTemplate {
		st := states[name]
		if st == nil {
			// The checkpoint does not know this template (first boot, or a
			// corrupt checkpoint). Hold the records until Register.
			s.walPending[name] = recs
			report.WALPending += len(recs)
			continue
		}
		applied, skipped, stale := replayRecords(st.online, recs)
		st.obs.SetRetuneEpoch(st.online.RetuneEpoch())
		report.WALReplayed += applied
		report.WALSkipped += skipped
		report.WALStale += stale
	}
	for name, recs := range corrByTemplate {
		st := states[name]
		if st == nil || st.online.Corrections() == nil {
			s.corrPending[name] = recs
			report.WALPending += len(recs)
			continue
		}
		corr := st.online.Corrections()
		for _, rec := range recs {
			if corr.Replay(rec) {
				report.WALReplayed++
			} else {
				report.WALSkipped++
			}
		}
	}
	// Every learner — checkpoint-restored or registered later — gets its
	// WAL sink in registerLocked (s.wal is already set when LoadState
	// re-registers the saved templates above).
	report.RecoveryDuration = time.Since(t0)

	if !d.DisableCheckpointer {
		every := d.CheckpointInterval
		if every <= 0 {
			every = defaultCheckpointInterval
		}
		s.checkpointStop = make(chan struct{})
		s.checkpointDone = make(chan struct{})
		go s.checkpointLoop(every)
	}
	return nil
}

// replayRecords replays one template's ordered WAL record stream — feedback
// and retune records interleaved in log order — into its learner. Feedback
// accumulates into batches flushed at each retune record, preserving the
// leader's insert/retune interleaving (the retune rebuilds the synopsis
// from its reservoir, so a point applied on the wrong side of it would land
// in the wrong mapping). Malformed retune payloads are counted stale.
func replayRecords(o *core.Online, recs []wal.Record) (applied, skipped, stale int) {
	batch := make([]core.Feedback, 0, len(recs))
	flush := func() {
		if len(batch) == 0 {
			return
		}
		a, sk, stl := o.ReplayBatch(batch)
		applied += a
		skipped += sk
		stale += stl
		batch = batch[:0]
	}
	for _, r := range recs {
		if r.Kind == wal.RecordRetune {
			flush()
			warps, err := core.WarpsFromFlat(int(r.WarpT), int(r.WarpS), int(r.WarpK), r.Warps)
			if err != nil {
				stale++
				continue
			}
			if o.ReplayRetune(r.Seq, r.RetuneEpoch, warps) {
				applied++
			} else {
				skipped++
			}
			continue
		}
		batch = append(batch, core.Feedback{
			Point:       r.Point,
			Plan:        int(r.Plan),
			Cost:        r.Cost,
			SelfLabeled: r.SelfLabeled,
			Epoch:       r.Epoch,
			Seq:         r.Seq,
		})
	}
	flush()
	return applied, skipped, stale
}

// replayPendingLocked applies WAL records held for a template that was not
// in the checkpoint. Feedback records whose dimensionality disagrees with
// the registered template are counted stale rather than applied (the
// template changed shape between crash and restart). Callers hold s.regMu.
func (s *System) replayPendingLocked(name string, st *templateState) {
	recs := s.walPending[name]
	if len(recs) == 0 && len(s.corrPending[name]) == 0 {
		return
	}
	t0 := time.Now()
	delete(s.walPending, name)
	dims := st.tmpl.Degree()
	kept := recs[:0]
	mismatched := 0
	for _, r := range recs {
		if r.Kind != wal.RecordRetune && len(r.Point) != dims {
			mismatched++
			continue
		}
		kept = append(kept, r)
	}
	applied, skipped, stale := replayRecords(st.online, kept)
	st.obs.SetRetuneEpoch(st.online.RetuneEpoch())
	corrRecs := s.corrPending[name]
	delete(s.corrPending, name)
	corrApplied, corrSkipped := 0, 0
	if corr := st.online.Corrections(); corr != nil {
		for _, rec := range corrRecs {
			if corr.Replay(rec) {
				corrApplied++
			} else {
				corrSkipped++
			}
		}
	} else {
		corrSkipped = len(corrRecs)
	}
	s.loadMu.Lock()
	if r := s.lastLoad; r != nil {
		r.WALPending -= len(recs) + len(corrRecs)
		r.WALReplayed += applied + corrApplied
		r.WALSkipped += skipped + corrSkipped
		r.WALStale += stale + mismatched
		// Pending replay is recovery work deferred to registration time;
		// fold it into the recovery wall clock so the report stays honest.
		r.RecoveryDuration += time.Since(t0)
	}
	s.loadMu.Unlock()
}

// checkpointLoop is the background checkpointer: a periodic Checkpoint
// until Close stops it. Errors are counted (walObs) and retried next tick.
func (s *System) checkpointLoop(every time.Duration) {
	defer close(s.checkpointDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Checkpoint() //nolint:errcheck
		case <-s.checkpointStop:
			return
		}
	}
}

// stopCheckpointer halts the background checkpointer and waits for it.
// Idempotent; a no-op when durability (or the checkpointer) is disabled.
func (s *System) stopCheckpointer() {
	if s.checkpointStop == nil {
		return
	}
	s.checkpointOnce.Do(func() { close(s.checkpointStop) })
	<-s.checkpointDone
}

// Checkpoint writes the current learned state to the durability
// directory's snapshot and compacts the WAL segments it makes redundant.
// The snapshot lands atomically (temp file, fsync, rename) so a crash
// mid-checkpoint leaves the previous checkpoint intact. Requires
// durability to be enabled. Calls are serialized: callers and the
// background checkpointer share one temp file.
//
// The compaction bound is taken before the save: every template's
// applied-sequence watermark only grows, so a snapshot written afterwards
// covers at least the records below the bound.
func (s *System) Checkpoint() (err error) {
	defer capturePanic("ppc.Checkpoint", &err)
	if s.wal == nil {
		return &SnapshotError{Op: "checkpoint", Err: fmt.Errorf("durability not enabled")}
	}
	s.checkpointMu.Lock()
	defer s.checkpointMu.Unlock()
	t0 := time.Now()
	defer func() {
		if err != nil {
			s.walObs.CountCheckpointError()
		}
	}()
	minSeq := s.checkpointMinSeq()

	dir := s.opts.Durability.Dir
	tmp := filepath.Join(dir, checkpointName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	if err := s.SaveState(f); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName)); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	// Fsync the directory so the rename itself survives power loss.
	if df, derr := os.Open(dir); derr == nil {
		df.Sync()  //nolint:errcheck
		df.Close() //nolint:errcheck
	}
	if _, err := s.wal.Compact(minSeq); err != nil {
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	s.walObs.RecordCheckpoint(time.Since(t0), minSeq)
	return nil
}

// checkpointMinSeq returns the conservative WAL compaction bound: the
// smallest applied-sequence watermark across templates that have logged
// anything. Records at or below it are reflected in every learner a
// subsequent SaveState encodes.
func (s *System) checkpointMinSeq() uint64 {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	min := ^uint64(0)
	any := false
	for _, st := range s.templates {
		if seq := st.online.AppliedSeq(); seq > 0 {
			if seq < min {
				min = seq
			}
			any = true
		}
	}
	if !any {
		return 0
	}
	return min
}

// WALMetrics returns the durability layer's metrics snapshot, or nil when
// durability is disabled.
func (s *System) WALMetrics() *obsv.WALSnapshot {
	if s.wal == nil {
		return nil
	}
	snap := s.walObs.Snapshot()
	return &snap
}

// closeDurable flushes and closes the durability layer: final WAL sync,
// final checkpoint (so the next Open replays nothing), then the log
// itself. Appliers are already shut down by Close, so every acknowledged
// point is in the synopsis and on disk.
func (s *System) closeDurable() error {
	if s.wal == nil {
		return nil
	}
	var firstErr error
	if err := s.wal.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.Checkpoint(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
