package ppc

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/optimizer"
	"repro/internal/snapshot"
)

// State persistence: a parametric plan cache is only as good as what it
// has learned, so a System can save its learned state — the per-template
// histogram synopses and candidate sets, the plan registry, the cached
// plan trees and cache membership — and restore it after a restart,
// resuming with warm predictions instead of a cold re-learning phase.
//
// The encoding is internal/snapshot's State, framed with a magic string, a
// version, a payload length and a CRC-32C checksum; a replica snapshot
// carries the same bytes. Corruption (truncation, bit flips, garbage, an
// older format) is detected at load time and is NOT an error: a warm start
// is an optimization, so a damaged snapshot degrades the System to a cold
// learner and the damage is reported via LoadStateReport. Only
// non-recoverable mismatches — restoring onto the wrong database, or onto
// a System that has already learned — are hard *SnapshotError failures.
//
// The database itself is regenerated deterministically from Options.TPCH,
// so only the learned state is persisted.

// LoadReport describes what LoadState recovered from a snapshot and — when
// durability is enabled — what the WAL tail replay added on top of it.
type LoadReport struct {
	// Corrupt is true when the snapshot failed validation (bad magic,
	// truncation, checksum mismatch, undecodable payload) and the System
	// stayed (fully or partially) cold, or when the WAL carried damage
	// beyond an ordinary torn tail.
	Corrupt bool
	// Reason explains the detected corruption, empty when Corrupt is false.
	Reason string
	// ColdTemplates lists templates that were re-registered with a cold
	// learner because their saved synopsis failed to decode.
	ColdTemplates []string
	// Templates and Plans count what was successfully restored.
	Templates int
	Plans     int

	// WALEnabled reports whether the fields below are meaningful (the
	// System was opened with a Durability directory).
	WALEnabled bool
	// WALSegments counts the log segments scanned during recovery.
	WALSegments int
	// WALReplayed counts records applied into learners; WALSkipped the
	// records already covered by the checkpoint's watermarks; WALStale the
	// records dropped because a drift reset (or a template shape change)
	// superseded them.
	WALReplayed int
	WALSkipped  int
	WALStale    int
	// WALPending counts recovered records whose template is not registered
	// yet; they are applied when the template is registered and move into
	// the counters above.
	WALPending int
	// WALTornBytes and WALTornSegment report the torn tail Open truncated —
	// the expected artifact of a crash mid-append, not corruption.
	WALTornBytes   int64
	WALTornSegment string
	// WALQuarantined lists segments moved aside because mid-log damage made
	// their ordering untrustworthy.
	WALQuarantined []string
	// RecoveryDuration is the wall time of the whole recovery sequence:
	// WAL scan and repair, checkpoint load, and tail replay.
	RecoveryDuration time.Duration
}

// LoadStateReport returns the report of the most recent LoadState call, or
// nil if LoadState has not been called.
func (s *System) LoadStateReport() *LoadReport {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	return s.lastLoad
}

// SaveState writes the system's learned state to w in the framed,
// checksummed snapshot format (see captureState for what it holds and its
// consistency argument). A plan id whose tree is missing from the saved
// cache simply re-optimizes on demand after restore, exactly like an
// evicted plan.
func (s *System) SaveState(w io.Writer) (err error) {
	defer capturePanic("ppc.SaveState", &err)
	st, err := s.captureState()
	if err != nil {
		return &SnapshotError{Op: "save", Err: err}
	}
	b := st.Encode()
	// The checksum covers the intact body; an injected bit flip afterwards
	// mimics on-disk corruption and must be caught at load.
	if off, ok := s.opts.Faults.CorruptOffset(len(b) - snapshot.HeaderLen); ok {
		b[snapshot.HeaderLen+off] ^= 0xFF
	}
	if _, err := w.Write(b); err != nil {
		return &SnapshotError{Op: "save", Err: err}
	}
	return nil
}

// LoadState restores state written by SaveState into a freshly opened
// System (no templates registered, nothing run yet). The System must have
// been opened with the same database configuration.
//
// A snapshot that fails validation — wrong magic, truncated stream,
// checksum mismatch, undecodable payload — is NOT an error: LoadState
// returns nil, leaves the System cold, and records the damage in
// LoadStateReport. A template whose learner synopsis fails to decode is
// re-registered cold while the rest of the snapshot is still used. Hard
// *SnapshotError failures are reserved for states no amount of degrading
// can fix: a snapshot from a different database, or a System that is not
// fresh.
func (s *System) LoadState(r io.Reader) (err error) {
	defer capturePanic("ppc.LoadState", &err)
	s.regMu.Lock()
	defer s.regMu.Unlock()
	report := &LoadReport{}
	s.loadMu.Lock()
	s.lastLoad = report
	s.loadMu.Unlock()
	if s.reg.Count() != 0 || len(s.templates) != 0 {
		return &SnapshotError{Op: "load", Err: fmt.Errorf("LoadState requires a fresh System")}
	}

	b, derr := io.ReadAll(r)
	var in *snapshot.State
	if derr == nil {
		in, derr = snapshot.Decode(b)
	}
	if derr != nil {
		report.Corrupt = true
		report.Reason = derr.Error()
		return nil // degrade to cold
	}
	if in.DBScale != s.opts.TPCH.Scale || in.DBSeed != s.opts.TPCH.Seed {
		return &SnapshotError{Op: "load", Err: fmt.Errorf(
			"state was learned on database scale=%d seed=%d, this system has scale=%d seed=%d",
			in.DBScale, in.DBSeed, s.opts.TPCH.Scale, s.opts.TPCH.Seed)}
	}
	// Rebuild the registry with identical dense ids.
	for want, fp := range in.Fingerprints {
		if got := s.reg.ID(fp); got != want {
			return &SnapshotError{Op: "load", Err: fmt.Errorf(
				"registry rebuild mismatch: %q -> %d, want %d", fp, got, want)}
		}
	}
	// Re-register templates and restore their learners. A synopsis that
	// fails to decode leaves that template cold rather than failing the
	// whole restore.
	for _, st := range in.Templates {
		if err := s.registerLocked(st.Name, st.SQL); err != nil {
			return err
		}
		if derr := s.templates[st.Name].online.DecodeState(bytes.NewReader(st.Learner)); derr != nil {
			report.Corrupt = true
			if report.Reason == "" {
				report.Reason = fmt.Sprintf("template %s synopsis: %v", st.Name, derr)
			}
			report.ColdTemplates = append(report.ColdTemplates, st.Name)
			// Replace the half-decoded learner with a cold one.
			if rerr := s.recreateLearnerLocked(st.Name); rerr != nil {
				return rerr
			}
			continue
		}
		// The retune gauge is otherwise only written on live re-tunes; seed
		// it so a restored system reports its re-tuned state immediately.
		s.templates[st.Name].obs.SetRetuneEpoch(s.templates[st.Name].online.RetuneEpoch())
		// Adopt the saved candidate set over the one registerLocked just
		// regenerated: the saved fingerprints were produced at the saved
		// correction epoch, which the restored learner state is in lockstep
		// with. Ids resolve through the rebuilt registry (dense, identical).
		if len(st.CandFPs) > 0 {
			ts := s.templates[st.Name]
			ids := make([]int, len(st.CandFPs))
			for i, fp := range st.CandFPs {
				ids[i] = s.reg.ID(fp)
			}
			ts.candMu.Lock()
			ts.candIDs = ids
			ts.candFPs = st.CandFPs
			ts.candEpoch = st.CandEpoch
			ts.candMu.Unlock()
			ts.obs.SetCandidatePlans(len(ids))
		}
		report.Templates++
	}
	// Restore plan trees and cache membership under the cache lock
	// (regMu > cacheMu in the hierarchy), compiling each plan as internPlan
	// does. An entry registration already interned for the same template
	// (a candidate plan) is kept. A plan whose tree does not decode, whose
	// owning template is not in the snapshot, or that does not compile is
	// dropped (Run re-optimizes on demand).
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	for _, sp := range in.Plans {
		owner := s.templates[sp.Template]
		root, terr := optimizer.DecodeTree(sp.Tree)
		reason := ""
		if owner == nil {
			reason = fmt.Sprintf("plan %d has unknown template %q", sp.ID, sp.Template)
		} else if terr != nil {
			reason = fmt.Sprintf("plan %d: %v", sp.ID, terr)
		} else if have := s.planByID[sp.ID]; have == nil || have.owner != owner {
			entry, err := s.compilePlan(owner, &optimizer.Plan{Root: root, Cost: sp.Cost, Fingerprint: sp.Fingerprint})
			if err != nil {
				reason = err.Error()
			} else {
				s.planByID[sp.ID] = entry
			}
		}
		if reason != "" {
			report.Corrupt = true
			if report.Reason == "" {
				report.Reason = reason
			}
			continue
		}
		report.Plans++
		if sp.Cached {
			s.cache.Put(sp.ID, s.planByID[sp.ID].plan)
		}
	}
	return nil
}

// recreateLearnerLocked replaces a template's learner with a cold one
// (used when its saved synopsis is corrupt). The old state's background
// applier is stopped first so the re-registration cannot leak a goroutine.
// Callers hold s.regMu.
func (s *System) recreateLearnerLocked(name string) error {
	st := s.templates[name]
	tmpl := st.tmpl
	sql := tmpl.SQL
	st.shutdown()
	delete(s.templates, name)
	// Cold means cold: a half-restored correction state is dropped with the
	// learner (re-registration creates a fresh one).
	if s.stats != nil {
		s.stats.Drop(name)
	}
	return s.registerLocked(name, sql)
}

// captureState collects the learned state a checkpoint and a replica
// snapshot both carry. For every registered template, in name order, it
// flushes the feedback mailbox — so every point already acknowledged by
// Run is in the synopsis — encodes the learner under its write lock (other
// templates keep serving) and reads the candidate set. It then reads the
// plan fingerprint table, the interned plan trees and cache membership.
// The result is per-template consistent, not globally atomic. The plan
// registry is append-only with dense ids, so reading it AFTER the learners
// guarantees every plan id a synopsis references has a fingerprint.
func (s *System) captureState() (*snapshot.State, error) {
	out := &snapshot.State{DBScale: s.opts.TPCH.Scale, DBSeed: s.opts.TPCH.Seed}
	s.regMu.RLock()
	states := make([]*templateState, 0, len(s.templates))
	for _, st := range s.templates {
		states = append(states, st)
	}
	s.regMu.RUnlock()
	sort.Slice(states, func(i, j int) bool { return states[i].tmpl.Name < states[j].tmpl.Name })
	for _, st := range states {
		st.flush()
		var buf bytes.Buffer
		if err := st.online.EncodeState(&buf); err != nil {
			return nil, fmt.Errorf("template %s: %w", st.tmpl.Name, err)
		}
		t := snapshot.Template{Name: st.tmpl.Name, SQL: st.tmpl.SQL, Learner: buf.Bytes()}
		st.candMu.RLock()
		t.CandFPs, t.CandEpoch = st.candFPs, st.candEpoch
		st.candMu.RUnlock()
		out.Templates = append(out.Templates, t)
	}
	out.Fingerprints = s.reg.Fingerprints()
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	ids := make([]int, 0, len(s.planByID))
	for id := range s.planByID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		entry := s.planByID[id]
		// The cache exposes no recency order; membership is what avoids
		// re-optimization, and hits re-establish order quickly.
		out.Plans = append(out.Plans, snapshot.Plan{
			ID: id, Template: entry.owner.tmpl.Name, Cost: entry.plan.Cost, Fingerprint: entry.plan.Fingerprint,
			Tree: optimizer.EncodeTree(entry.plan.Root), Cached: s.cache.Contains(id),
		})
	}
	return out, nil
}
