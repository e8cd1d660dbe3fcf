// Package replica implements the networked serving tier of the PPC system:
// a leader-side ship server that streams learned state to followers over
// the netproto wire format, and a predict-only replica that installs a
// full snapshot on connect, tails the leader's WAL records, and serves the
// lock-free predict path with no learner, optimizer or executor of its own.
//
// Replication unit and invariants:
//
//   - The snapshot is the leader's encoded system state (internal/snapshot)
//     — the same bytes a checkpoint writes: every template's learner
//     state, candidate set and cached plan trees, plus the dense plan
//     fingerprint table. A replica installs the learners and the
//     fingerprint table; decoding them gives a learner state identical to
//     the leader's at encode time, so predictions are bit-identical for
//     the same snapshot epoch.
//   - The incremental stream is the leader's WAL records, shipped in their
//     on-disk frame encoding. Replicas apply them through the same
//     core.Online.ApplyLog crash recovery uses: one template's feedback,
//     retune and correction records in log order, made idempotent by the
//     per-template applied-sequence watermarks, so the snapshot/stream
//     overlap is harmless and record epochs reproduce drift resets.
//     ApplyLog counts a record that does not fit the installed learner — a
//     point of the wrong dimensionality, a warp grid of the wrong shape —
//     as stale instead of applying it, so a malformed shipped record cannot
//     crash the replica; corrections for a learner shipped without a
//     corrections section are skipped.
//   - Epoch fencing: every stream is stamped with the leader's lineage
//     epoch (a random 64-bit value persisted beside its WAL). A replica
//     reconnecting to a different lineage discards everything it holds
//     before installing the new snapshot — stale state is never served
//     across a lineage change.
package replica

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netproto"
	"repro/internal/obsv"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/wal"
)

// ErrEpochFenced reports a snapshot whose lineage epoch differs from the
// epoch the state is fenced to. Sessions fence before installing, so this
// only fires on a protocol violation (e.g. a frame from a dead session) —
// the stale snapshot is rejected, the held state keeps serving.
var ErrEpochFenced = errors.New("replica: snapshot rejected: lineage epoch is fenced")

// State is a replica's installed learned state: one predict-only
// core.Online per template plus the plan fingerprint table, all fenced to
// a single leader lineage epoch. Predictions run lock-free on the
// published model snapshots; Install/Fence/ApplyRecords serialize on an
// internal lock that PredictRPC only takes briefly (map fetch, not the
// predict itself).
type State struct {
	obs *obsv.ReplObs

	mu           sync.RWMutex
	epoch        uint64 // lineage epoch the state is fenced to (0 = none)
	receivedSeq  uint64 // newest WAL seq covered (snapshot base or applied)
	templates    map[string]*core.Online
	fingerprints []string
}

// NewState creates an empty replica state reporting into obs (nil for a
// private, unexported gauge set).
func NewState(obs *obsv.ReplObs) *State {
	if obs == nil {
		obs = &obsv.ReplObs{}
	}
	return &State{obs: obs, templates: make(map[string]*core.Online)}
}

// Obs returns the state's replication gauges.
func (s *State) Obs() *obsv.ReplObs { return s.obs }

// Epoch returns the lineage epoch the state is fenced to (0 when empty).
func (s *State) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// ReceivedSeq returns the newest WAL sequence the state covers — the
// resume position a reconnecting session advertises.
func (s *State) ReceivedSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.receivedSeq
}

// Ready reports whether a snapshot has been installed (a replica answers
// StatusNotReady until then).
func (s *State) Ready() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.templates) > 0
}

// Templates returns the installed template names (unordered).
func (s *State) Templates() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.templates))
	for n := range s.templates {
		names = append(names, n)
	}
	return names
}

// Fence pins the state to a lineage epoch. Crossing lineages — the state
// holds templates from one epoch and the leader now reports another —
// discards everything first: serving another lineage's predictions is the
// failure mode epoch fencing exists to prevent. Returns true when state
// was discarded.
func (s *State) Fence(epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	discarded := false
	if s.epoch != 0 && s.epoch != epoch && len(s.templates) > 0 {
		s.templates = make(map[string]*core.Online)
		s.fingerprints = nil
		s.receivedSeq = 0
		s.obs.CountFenceDiscard()
		discarded = true
	}
	s.epoch = epoch
	s.obs.SetEpoch(epoch)
	return discarded
}

// Install decodes and installs a full snapshot, replacing the held
// templates. A snapshot from a different lineage than the fenced epoch is
// rejected with ErrEpochFenced (stale by definition — it was cut by a
// leader this session is not talking to); the held state keeps serving. A
// decode failure rejects the snapshot atomically: the previously installed
// state survives untouched.
func (s *State) Install(snap *netproto.Snapshot) error {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != 0 && snap.Epoch != s.epoch {
		s.obs.CountStaleSnapshot()
		return fmt.Errorf("%w: snapshot epoch %x, fenced to %x", ErrEpochFenced, snap.Epoch, s.epoch)
	}
	in, err := snapshot.Decode(snap.State)
	if err != nil {
		return fmt.Errorf("replica: install: %w", err)
	}
	fresh := make(map[string]*core.Online, len(in.Templates))
	for _, t := range in.Templates {
		o, err := core.NewReplicaOnline(bytes.NewReader(t.Learner))
		if err != nil {
			return fmt.Errorf("replica: install template %s: %w", t.Name, err)
		}
		fresh[t.Name] = o
	}
	s.templates = fresh
	s.fingerprints = in.Fingerprints
	s.epoch = snap.Epoch
	if snap.BaseSeq > s.receivedSeq {
		s.receivedSeq = snap.BaseSeq
	}
	s.obs.SetEpoch(snap.Epoch)
	s.obs.SetAppliedSeq(s.receivedSeq)
	s.obs.RecordSnapshotInstall(time.Since(t0))
	return nil
}

// ApplyRecords feeds shipped WAL records into the installed learners,
// grouped by template, through core.Online.ApplyLog — the apply path crash
// recovery uses. Records for templates the snapshot did not contain are
// counted skipped — the leader registered them after the snapshot was cut,
// and the next full snapshot covers them. Records ApplyLog finds stale
// (superseded by a drift reset, or not fitting the installed learner) are
// counted skipped too. The received sequence advances over every record
// either way, so lag converges to zero even with unknown templates in the
// stream.
func (s *State) ApplyRecords(recs []wal.Record) (applied, skipped int) {
	if len(recs) == 0 {
		return 0, 0
	}
	byTemplate := make(map[string][]wal.Record)
	for _, r := range recs {
		byTemplate[r.Template] = append(byTemplate[r.Template], r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, stream := range byTemplate {
		o := s.templates[name]
		if o == nil {
			skipped += len(stream)
			continue
		}
		a, sk, stale := o.ApplyLog(stream)
		applied += a
		skipped += sk + stale
	}
	if last := recs[len(recs)-1].Seq; last > s.receivedSeq {
		s.receivedSeq = last
	}
	s.obs.CountRecordsApplied(applied)
	s.obs.SetAppliedSeq(s.receivedSeq)
	return applied, skipped
}

// RetuneEpoch returns the tunable-LSH retune epoch of one installed
// template's learner (0 when the template is absent or tuning never fired).
// Parity audits compare it against the leader's.
func (s *State) RetuneEpoch(template string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o := s.templates[template]; o != nil {
		return o.RetuneEpoch()
	}
	return 0
}

// CorrectionState returns the correction state shipped for one template —
// nil when the template is absent or its learner was shipped without a
// corrections section. Parity audits compare it against the leader's.
func (s *State) CorrectionState(template string) *stats.Corrections {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o := s.templates[template]; o != nil {
		return o.Corrections()
	}
	return nil
}

// PredictRPC serves one wire predict request from the installed state
// through core.Online.PredictRPC, the body the leader's PredictRPC runs,
// which is what makes replica answers bit-identical to the leader's for
// the same snapshot epoch.
func (s *State) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	s.mu.RLock()
	o := s.templates[req.Template]
	fps := s.fingerprints
	empty := len(s.templates) == 0
	s.mu.RUnlock()
	if o == nil {
		res := netproto.PredictResult{ID: req.ID, Status: netproto.StatusUnknownTemplate, ErrMsg: req.Template}
		if empty {
			res.Status, res.ErrMsg = netproto.StatusNotReady, ""
		}
		return res
	}
	res := o.PredictRPC(req)
	if res.Status == netproto.StatusOK && res.Plan >= 0 && res.Plan < int64(len(fps)) {
		res.Fingerprint = fps[res.Plan]
	}
	return res
}
