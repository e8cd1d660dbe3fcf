package ppc

// Fuzz coverage for the system state decoder — the bytes a checkpoint file
// holds after a crash and a replica receives on connect are arbitrary as
// far as recovery is concerned. Every fuzzed input is decoded twice: as a
// whole stream (the envelope: magic, version, length, checksum) and as the
// body under a freshly computed valid frame, so mutations get past the
// checksum into the section, learner and plan-tree decoders. The invariant
// is the degrade contract: every decoder either returns a value or an
// error, never both, and never panics.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/snapshot"
	"repro/internal/tpch"
)

// trainedSnapshot returns SaveState output of a System holding one
// trained, re-tuned template (Q1) with correction state, trimmed to its
// first interned plan.
func trainedSnapshot(tb testing.TB) []byte {
	tb.Helper()
	online := onlineForTest()
	online.InvocationProb = 0.3
	sys, err := Open(Options{
		TPCH:       tpch.Config{Scale: 2000, Seed: 5},
		Online:     online,
		TunableLSH: TunableLSHOptions{Enable: true, RetuneEvery: 40, Reservoir: 128},
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	if err := sys.Register("Q1", queries.Defs[1].SQL); err != nil {
		tb.Fatal(err)
	}
	tmpl, err := sys.Template("Q1")
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		inst, err := sys.Optimizer().InstanceAt(tmpl, []float64{0.25 + rng.Float64()*0.1, 0.25 + rng.Float64()*0.1})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := sys.Run("Q1", inst.Values); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		tb.Fatal(err)
	}
	st, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := sys.lookup("Q1")
	if err != nil {
		tb.Fatal(err)
	}
	if ts.online.RetuneEpoch() == 0 || ts.online.Corrections() == nil || len(st.Plans) == 0 {
		tb.Fatalf("seed state is not trained: retune epoch %d, corrections %v, %d plans",
			ts.online.RetuneEpoch(), ts.online.Corrections() != nil, len(st.Plans))
	}
	st.Plans = st.Plans[:1]
	return st.Encode()
}

// reframe puts body under a valid snapshot frame.
func reframe(body []byte) []byte {
	out := make([]byte, snapshot.HeaderLen, snapshot.HeaderLen+len(body))
	copy(out, "PPCSNAP\x00")
	binary.LittleEndian.PutUint16(out[8:], 2)
	binary.LittleEndian.PutUint64(out[10:], uint64(len(body)))
	binary.LittleEndian.PutUint32(out[18:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, body...)
}

func FuzzSnapshotDecode(f *testing.F) {
	good := trainedSnapshot(f)
	body := good[snapshot.HeaderLen:]
	f.Add(body)
	f.Add(body[:len(body)/2]) // truncated mid-section
	f.Add(good)               // a whole snapshot: valid envelope, garbage as a body
	f.Add([]byte{})           // empty
	f.Add([]byte("TMPLjunk")) // plausible tag, garbage after
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0xff // lands inside the learner bytes
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reframe(data)} {
			st, err := snapshot.Decode(in)
			if (st == nil) == (err == nil) {
				t.Fatalf("snapshot.Decode broke the degrade contract: state=%v err=%v", st, err)
			}
			if err != nil {
				continue
			}
			for _, tm := range st.Templates {
				o, err := core.NewReplicaOnline(bytes.NewReader(tm.Learner))
				if (o == nil) == (err == nil) {
					t.Fatalf("learner decode broke the degrade contract: %v", err)
				}
			}
			for _, p := range st.Plans {
				root, err := optimizer.DecodeTree(p.Tree)
				if (root == nil) == (err == nil) {
					t.Fatalf("plan tree decode broke the degrade contract: %v", err)
				}
				if err == nil {
					_ = optimizer.FingerprintOf(root)
				}
			}
		}
	})
}
