package replica

// Leader/replica integration tests over real TCP with a fake ship source:
// a WAL-backed leader state the tests drive record by record, so every
// scenario — equivalence, epoch fencing, version skew, admission control,
// wire chaos — runs the full netproto stack without the weight of a whole
// ppc.System (the root package has the end-to-end variant).

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/obsv"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// stubEnv satisfies core.Environment for a learner that is only ever driven
// by replayed feedback, never by Step.
type stubEnv struct{}

func (stubEnv) Optimize([]float64) (int, float64, error) {
	return 0, 0, errors.New("stub env: no optimizer")
}
func (stubEnv) ExecuteCost([]float64, int) (float64, error) {
	return 0, errors.New("stub env: no executor")
}

var testFingerprints = []string{"plan-0", "plan-1", "plan-2", "plan-3"}

// fakeSource is a minimal leader: one template ("Q1") learned from records
// it appends to a real WAL and replays into its own learner — the same
// bytes a follower receives, so leader and replica states stay comparable.
type fakeSource struct {
	t     *testing.T
	log   *wal.Log
	epoch uint64
	obs   obsv.ReplObs

	mu     sync.Mutex
	online *core.Online
	rng    *rand.Rand
}

func newFakeSource(t *testing.T, epoch uint64) *fakeSource {
	t.Helper()
	log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() }) //nolint:errcheck
	return &fakeSource{
		t:     t,
		log:   log,
		epoch: epoch,
		online: core.MustNewOnline(core.OnlineConfig{
			Core: core.Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5, NoiseElimination: true},
			Seed: 17,
		}, stubEnv{}),
		rng: rand.New(rand.NewSource(int64(epoch) + 101)),
	}
}

func quadrantPlan(x []float64) int64 {
	p := int64(0)
	if x[0] > 0.5 {
		p |= 1
	}
	if x[1] > 0.5 {
		p |= 2
	}
	return p
}

// feed appends n validated feedback records to the WAL and applies them to
// the leader learner — what the serving path does under load.
func (f *fakeSource) feed(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < n; i++ {
		x := []float64{f.rng.Float64(), f.rng.Float64()}
		rec := wal.Record{
			Template: "Q1",
			Plan:     quadrantPlan(x),
			Cost:     1 + x[0] + x[1],
			Point:    x,
		}
		seq, err := f.log.Append(&rec)
		if err != nil {
			f.t.Error(err)
			return
		}
		f.online.ReplayBatch([]core.Feedback{{
			Point: rec.Point, Plan: int(rec.Plan), Cost: rec.Cost, Seq: seq,
		}})
	}
	if err := f.log.Sync(); err != nil {
		f.t.Error(err)
	}
}

func (f *fakeSource) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	f.mu.Lock()
	o := f.online
	f.mu.Unlock()
	res := netproto.PredictResult{ID: req.ID}
	if req.Template != "Q1" {
		res.Status = netproto.StatusUnknownTemplate
		res.ErrMsg = req.Template
		return res
	}
	pred, cost, costOK := o.PredictModel(req.Point)
	res.Epoch = o.Epoch()
	res.ModelVersion = o.Model().Version()
	if !pred.OK {
		res.Status = netproto.StatusNoPrediction
		return res
	}
	res.Status = netproto.StatusOK
	res.Plan = int64(pred.Plan)
	res.Confidence = pred.Confidence
	res.Cost, res.CostKnown = cost, costOK
	if pred.Plan >= 0 && pred.Plan < len(testFingerprints) {
		res.Fingerprint = testFingerprints[pred.Plan]
	}
	return res
}

func (f *fakeSource) ReplicationEpoch() (uint64, error) { return f.epoch, nil }

func (f *fakeSource) ReplicationSnapshot() (*netproto.Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	base := f.online.AppliedSeq()
	var buf writerBuf
	if err := f.online.EncodeState(&buf); err != nil {
		return nil, err
	}
	st := snapshot.State{
		Templates:    []snapshot.Template{{Name: "Q1", Learner: buf.b}},
		Fingerprints: append([]string(nil), testFingerprints...),
	}
	return &netproto.Snapshot{Epoch: f.epoch, BaseSeq: base, State: st.Encode()}, nil
}

func (f *fakeSource) WALDir() string         { return f.log.Dir() }
func (f *fakeSource) WALFirstSeq() uint64    { return f.log.FirstSeq() }
func (f *fakeSource) WALLastSeq() uint64     { return f.log.LastSeq() }
func (f *fakeSource) ReplObs() *obsv.ReplObs { return &f.obs }

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// fastConfig returns server settings tightened for tests.
func fastConfig(src ShipSource) Config {
	return Config{
		Addr:         "127.0.0.1:0",
		Source:       src,
		Heartbeat:    50 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
	}
}

func fastOptions(addr string, st *State) Options {
	return Options{
		LeaderAddr:  addr,
		State:       st,
		AckInterval: 50 * time.Millisecond,
		IdleTimeout: 2 * time.Second,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
	}
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLeaderReplicaEquivalence is the equivalence acceptance criterion: a
// converged replica answers predict RPCs bit-identically to the leader —
// same plan, confidence, cost estimate and fingerprint at every grid point.
// (ModelVersion counts publishes, which legitimately differ by batching.)
func TestLeaderReplicaEquivalence(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(600)

	srv, err := Serve(fastConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rep, err := Start(fastOptions(srv.Addr(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()

	waitUntil(t, 10*time.Second, "snapshot install", st.Ready)
	src.feed(300) // live tail while connected
	waitUntil(t, 10*time.Second, "replica catch-up", func() bool {
		return st.ReceivedSeq() == src.log.LastSeq()
	})

	// Leader quiesced; both sides hold state for the same record prefix.
	rng := rand.New(rand.NewSource(7))
	hits := 0
	for i := 0; i < 500; i++ {
		req := netproto.PredictRequest{
			ID: uint64(i), Template: "Q1",
			Point: []float64{rng.Float64(), rng.Float64()},
		}
		l, r := src.PredictRPC(req), st.PredictRPC(req)
		if l.Status != r.Status || l.Plan != r.Plan || l.Confidence != r.Confidence ||
			l.Cost != r.Cost || l.CostKnown != r.CostKnown || l.Fingerprint != r.Fingerprint ||
			l.Epoch != r.Epoch {
			t.Fatalf("diverged at %v:\nleader  %+v\nreplica %+v", req.Point, l, r)
		}
		if l.Status == netproto.StatusOK {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no OK predictions; equivalence check vacuous")
	}

	// Lag gauges: caught up means zero.
	if lag := st.Obs().LagRecords(); lag != 0 {
		t.Errorf("converged replica reports lag %d", lag)
	}
	waitUntil(t, 10*time.Second, "a follower ack", func() bool {
		return src.obs.Snapshot().MinFollowerAck > 0
	})
}

// TestReplicaReconnectResume kills the TCP session (not the leader) and
// checks the replica resumes the stream without a second snapshot.
func TestReplicaReconnectResume(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(100)
	srv, err := Serve(fastConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rep, err := Start(fastOptions(srv.Addr(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()
	waitUntil(t, 10*time.Second, "first install", st.Ready)
	waitUntil(t, 10*time.Second, "catch-up", func() bool {
		return st.ReceivedSeq() == src.log.LastSeq()
	})

	// Drop every live server connection; the replica must come back and
	// resume from its acked position (same epoch, records still on disk).
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close() //nolint:errcheck
	}
	srv.mu.Unlock()

	src.feed(50)
	waitUntil(t, 10*time.Second, "resume catch-up", func() bool {
		return st.ReceivedSeq() == src.log.LastSeq()
	})
	snap := st.Obs().Snapshot()
	if snap.Reconnects == 0 {
		t.Error("no reconnect recorded")
	}
	if snap.SnapshotsInstalled != 1 {
		t.Errorf("%d snapshots installed; resume should not re-snapshot", snap.SnapshotsInstalled)
	}
}

// TestEpochFencedReconnect is the epoch-fencing satellite end to end: the
// replica converges against lineage A, the leader is replaced by lineage B
// on the same address (a drift-reset / fresh-durability restart), and the
// reconnecting replica must discard everything fenced to A before serving
// B's state — stale cross-lineage state is never served.
func TestEpochFencedReconnect(t *testing.T) {
	srcA := newFakeSource(t, 0xaaaa)
	srcA.feed(200)
	srvA, err := Serve(fastConfig(srcA))
	if err != nil {
		t.Fatal(err)
	}
	addr := srvA.Addr()

	rep, err := Start(fastOptions(addr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()
	waitUntil(t, 10*time.Second, "install from lineage A", st.Ready)
	if st.Epoch() != 0xaaaa {
		t.Fatalf("fenced to %x, want aaaa", st.Epoch())
	}
	seqA := st.ReceivedSeq()

	// Lineage change: new leader, same address, different epoch and WAL.
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	srcB := newFakeSource(t, 0xbbbb)
	srcB.feed(40)
	cfgB := fastConfig(srcB)
	cfgB.Addr = addr
	var srvB *Server
	waitUntil(t, 10*time.Second, "rebind leader address", func() bool {
		srvB, err = Serve(cfgB)
		return err == nil
	})
	defer srvB.Close() //nolint:errcheck

	waitUntil(t, 10*time.Second, "install from lineage B", func() bool {
		return st.Epoch() == 0xbbbb && st.Ready()
	})
	snap := st.Obs().Snapshot()
	if snap.FenceDiscards == 0 {
		t.Error("lineage change did not discard fenced state")
	}
	if st.ReceivedSeq() >= seqA {
		t.Errorf("receivedSeq %d kept across lineages (was %d on A); resume state leaked", st.ReceivedSeq(), seqA)
	}
	waitUntil(t, 10*time.Second, "catch-up on lineage B", func() bool {
		return st.ReceivedSeq() == srcB.log.LastSeq()
	})
}

// TestInstallRejectsCrossEpochSnapshot covers the defensive half of the
// fencing satellite at the State level: a snapshot stamped with another
// lineage is rejected with ErrEpochFenced and the held state keeps serving.
func TestInstallRejectsCrossEpochSnapshot(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(100)
	snapA, err := src.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(nil)
	st.Fence(1)
	if err := st.Install(snapA); err != nil {
		t.Fatal(err)
	}
	seq := st.ReceivedSeq()

	other := newFakeSource(t, 2)
	other.feed(30)
	snapB, err := other.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Install(snapB); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("cross-epoch install: %v, want ErrEpochFenced", err)
	}
	if !st.Ready() || st.Epoch() != 1 || st.ReceivedSeq() != seq {
		t.Errorf("held state disturbed by a rejected snapshot: ready=%v epoch=%d seq=%d",
			st.Ready(), st.Epoch(), st.ReceivedSeq())
	}
	if st.Obs().Snapshot().StaleSnapshots != 1 {
		t.Error("stale snapshot not counted")
	}
}

// TestVersionMismatchHandshake is the version-skew satellite over real TCP:
// a peer speaking protocol v99 must be rejected with CodeVersionMismatch,
// not silently dropped or misparsed.
func TestVersionMismatchHandshake(t *testing.T) {
	src := newFakeSource(t, 1)
	srv, err := Serve(fastConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close() //nolint:errcheck
	c := netproto.NewConn(raw, nil)
	hello := netproto.Hello{Version: 99, Role: netproto.RoleReplica}
	if err := c.WriteMsg(netproto.MsgHello, hello.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	mt, body, err := c.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if mt != netproto.MsgError {
		t.Fatalf("got %v, want error", mt)
	}
	em, err := netproto.DecodeError(body)
	if err != nil {
		t.Fatal(err)
	}
	if em.Code != netproto.CodeVersionMismatch {
		t.Fatalf("code %d, want CodeVersionMismatch", em.Code)
	}
}

// TestAdmissionCap exercises leader-side admission control: with MaxShips=1
// a second concurrent replica handshake is turned away with CodeBusy and
// the denial is counted.
func TestAdmissionCap(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(50)
	cfg := fastConfig(src)
	cfg.MaxShips = 1
	srv, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rep, err := Start(fastOptions(srv.Addr(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	waitUntil(t, 10*time.Second, "first replica install", rep.State().Ready)

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close() //nolint:errcheck
	c := netproto.NewConn(raw, nil)
	hello := netproto.Hello{Version: netproto.Version, Role: netproto.RoleReplica}
	if err := c.WriteMsg(netproto.MsgHello, hello.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	mt, body, err := c.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	em, _ := netproto.DecodeError(body)
	if mt != netproto.MsgError || em.Code != netproto.CodeBusy {
		t.Fatalf("second replica got %v/%d, want error/CodeBusy", mt, em.Code)
	}
	if src.obs.Snapshot().AdmissionDenials == 0 {
		t.Error("denial not counted")
	}
}

// TestColdResumeBelowCompactionFloor: a replica whose acked position was
// compacted away must not resume — the leader ships a fresh snapshot (the
// self-correcting path behind CodeSnapshotNeeded).
func TestColdResumeBelowCompactionFloor(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(200)
	if _, err := src.log.Compact(150); err != nil {
		t.Fatal(err)
	}
	if src.WALFirstSeq() <= 1 {
		t.Skip("compaction kept the full log; nothing to test")
	}

	st := NewState(nil)
	st.Fence(1)
	// Simulate an ancient acked position without installing anything.
	st.mu.Lock()
	st.receivedSeq = 1
	st.mu.Unlock()

	srv, err := Serve(fastConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	rep, err := Start(fastOptions(srv.Addr(), st))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck

	waitUntil(t, 10*time.Second, "fresh snapshot past the floor", func() bool {
		return st.Ready() && st.ReceivedSeq() >= src.log.LastSeq()
	})
	if st.Obs().Snapshot().SnapshotsInstalled == 0 {
		t.Error("no snapshot installed; stale resume was accepted")
	}
}

// TestChaosCorruptAndTornFrames runs the wire fault classes against a live
// session: corrupted and torn frames kill connections, the replica
// reconnects, and once the faults stop it still converges to the leader.
func TestChaosCorruptAndTornFrames(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(100)
	inj := faults.New(97)
	inj.Enable(faults.NetCorruptFrame, 0.05)
	inj.Enable(faults.NetTornFrame, 0.02)
	cfg := fastConfig(src)
	cfg.Faults = inj
	srv, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rep, err := Start(fastOptions(srv.Addr(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()

	// Keep load flowing while the wire misbehaves.
	for i := 0; i < 20; i++ {
		src.feed(20)
		time.Sleep(20 * time.Millisecond)
	}
	inj.DisableAll()
	waitUntil(t, 20*time.Second, "post-chaos convergence", func() bool {
		return st.Ready() && st.ReceivedSeq() == src.log.LastSeq()
	})
	snap := st.Obs().Snapshot()
	if snap.BadFrames == 0 && snap.Reconnects == 0 {
		t.Logf("chaos produced no visible faults (injector fired %d)", inj.Fired(faults.NetCorruptFrame)+inj.Fired(faults.NetTornFrame))
	}
	// Applied records must never exceed what the leader wrote.
	if st.ReceivedSeq() > src.log.LastSeq() {
		t.Errorf("receivedSeq %d beyond leader tail %d", st.ReceivedSeq(), src.log.LastSeq())
	}
}
