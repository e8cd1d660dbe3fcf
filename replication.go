package ppc

// Leader-side replication support: the System methods the ship server
// (internal/replica.Server) drives. A leader is simply a durable System —
// the WAL segments under the durability directory are the replication
// stream, and ReplicationSnapshot ships the same encoded state a
// checkpoint writes (internal/snapshot). Nothing here runs on the serving
// path.

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/netproto"
	"repro/internal/obsv"
)

// lineageName is the leader lineage epoch file under the durability
// directory.
const lineageName = "lineage.ppc"

// ReplicationEpoch returns the leader lineage epoch: a random 64-bit value
// minted on the durability directory's first use as a leader and persisted
// beside the checkpoint. A leader restarted over the same directory (crash
// recovery included) keeps its epoch — its WAL history is continuous, so
// replicas may resume. A leader started over a fresh directory mints a new
// epoch, and every replica that reconnects discards its fenced-out state
// instead of serving another lineage's predictions. Requires durability.
func (s *System) ReplicationEpoch() (uint64, error) {
	if s.wal == nil {
		return 0, fmt.Errorf("ppc: replication requires durability (Options.Durability.Dir)")
	}
	s.lineageOnce.Do(func() {
		s.lineage, s.lineageErr = loadOrMintLineage(s.opts.Durability.Dir)
	})
	return s.lineage, s.lineageErr
}

// loadOrMintLineage reads the persisted lineage epoch, minting and durably
// writing one on first use.
func loadOrMintLineage(dir string) (uint64, error) {
	path := filepath.Join(dir, lineageName)
	if data, err := os.ReadFile(path); err == nil && len(data) == 8 {
		if e := binary.LittleEndian.Uint64(data); e != 0 {
			return e, nil
		}
	}
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("ppc: mint lineage epoch: %w", err)
		}
		// Zero is the protocol's "no epoch" sentinel; re-roll (p = 2^-64).
		if binary.LittleEndian.Uint64(buf[:]) != 0 {
			break
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("ppc: persist lineage epoch: %w", err)
	}
	if _, err := f.Write(buf[:]); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return 0, fmt.Errorf("ppc: persist lineage epoch: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// ReplicationSnapshot assembles a full state transfer for a connecting
// replica: the encoded system state a checkpoint holds (captureState; no
// injected snapshot corruption, which models disk damage) and the WAL
// floor it covers. The floor is taken BEFORE the learners are encoded —
// applied-sequence watermarks only grow, so the encoded state reflects at
// least every record below it and the overlap with the shipped tail is
// deduplicated by per-template watermark replay on the replica.
func (s *System) ReplicationSnapshot() (*netproto.Snapshot, error) {
	epoch, err := s.ReplicationEpoch()
	if err != nil {
		return nil, err
	}
	baseSeq := s.checkpointMinSeq()
	st, err := s.captureState()
	if err != nil {
		return nil, fmt.Errorf("ppc: encode for shipping: %w", err)
	}
	return &netproto.Snapshot{Epoch: epoch, BaseSeq: baseSeq, State: st.Encode()}, nil
}

// PredictRPC serves one wire predict request against the published model
// snapshots through core.Online.PredictRPC — the body replicas run too, and
// the same lock-free prediction Run's learner decision makes.
func (s *System) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	st, err := s.lookup(req.Template)
	if err != nil {
		return netproto.PredictResult{ID: req.ID, Status: netproto.StatusUnknownTemplate, ErrMsg: req.Template}
	}
	res := st.online.PredictRPC(req)
	if res.Status == netproto.StatusOK {
		res.Fingerprint = s.reg.Fingerprint(int(res.Plan))
	}
	return res
}

// WALDir returns the live WAL segment directory ("" when durability is
// disabled). The in-process ship server tails it directly.
func (s *System) WALDir() string {
	if s.wal == nil {
		return ""
	}
	return s.wal.Dir()
}

// WALFirstSeq returns the lowest WAL sequence still on disk — the resume
// floor: a replica whose state predates it needs a snapshot.
func (s *System) WALFirstSeq() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.FirstSeq()
}

// WALLastSeq returns the newest assigned WAL sequence (the leader's tail,
// shipped in heartbeats so replicas can compute lag).
func (s *System) WALLastSeq() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.LastSeq()
}

// ReplObs exposes the replication metrics leaf (leader shipping gauges).
func (s *System) ReplObs() *obsv.ReplObs { return s.obs.Repl() }

// ReplMetrics returns the replication metrics snapshot, or nil when no
// replication activity has been observed and durability is disabled (the
// gauge surface would be all zeros).
func (s *System) ReplMetrics() *obsv.ReplSnapshot {
	if s.wal == nil {
		return nil
	}
	snap := s.obs.Repl().Snapshot()
	return &snap
}
