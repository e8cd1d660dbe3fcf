package ppc

// Tests for the one feedback write path: every route a labeled point takes
// into a learner — the background applier, the inline fallback and WAL
// replay — ends in core.Online.ApplyBatch, so the routes agree on the
// learned state and on the side effects the applier reports.

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/snapshot"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// learnerBytes flushes one template's mailbox and returns its learner's
// EncodeState bytes.
func learnerBytes(t *testing.T, st *templateState) []byte {
	t.Helper()
	st.flush()
	var buf bytes.Buffer
	if err := st.online.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// templateCounters returns one template's metrics counters.
func templateCounters(t *testing.T, sys *System, template string) obsv.CounterSnapshot {
	t.Helper()
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range snap.Templates {
		if tm.Template == template {
			return tm.Counters
		}
	}
	t.Fatalf("no metrics for template %s", template)
	return obsv.CounterSnapshot{}
}

// With the background applier off every point applies inline, and a
// re-tune that an inline batch triggers must reach the metrics gauge just as
// one the applier triggers does.
func TestInlineApplyReportsRetuneEpoch(t *testing.T) {
	online := onlineForTest()
	online.InvocationProb = 0.3
	opts := Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: online, FeedbackQueue: -1}
	mutTunable(&opts)
	sys, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 400, 3)
	epoch := retuneEpoch(t, sys, "Q1")
	if epoch == 0 {
		t.Fatal("learner never re-tuned; test is vacuous")
	}
	if got := templateCounters(t, sys, "Q1").RetuneEpoch; got != epoch {
		t.Errorf("metrics report retune_epoch %d, learner at %d", got, epoch)
	}
}

// Restoring into a smaller plan cache than the saved one keeps only the
// plans the cache holds: the index of compiled plans matches the cache, and
// a later snapshot saves no plan outside it.
func TestLoadStateIntoSmallerCache(t *testing.T) {
	names := []string{"Q3", "Q4", "Q5", "Q6"}
	warm, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close() //nolint:errcheck
	rng := rand.New(rand.NewSource(9))
	for _, name := range names {
		if err := warm.Register(name, mustSQL(t, name)); err != nil {
			t.Fatal(err)
		}
		tmpl, err := warm.Template(name)
		if err != nil {
			t.Fatal(err)
		}
		point := make([]float64, tmpl.Degree())
		for i := 0; i < 60; i++ {
			for j := range point {
				point[j] = rng.Float64()
			}
			inst, err := warm.Optimizer().InstanceAt(tmpl, point)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Run(name, inst.Values); err != nil {
				t.Fatal(err)
			}
		}
	}
	const capacity = 4
	if warm.CacheLen() <= capacity {
		t.Fatalf("warm cache holds %d plans; test is vacuous", warm.CacheLen())
	}
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest(), CacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close() //nolint:errcheck
	if err := cold.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if rep := cold.LoadStateReport(); rep.Corrupt {
		t.Fatalf("restore reported damage: %s", rep.Reason)
	}
	cold.cacheMu.RLock()
	indexed := len(cold.planByID)
	cold.cacheMu.RUnlock()
	if n := cold.CacheLen(); indexed != n || n != capacity {
		t.Fatalf("after restore planByID holds %d plans, cache %d (capacity %d)", indexed, n, capacity)
	}

	var again bytes.Buffer
	if err := cold.SaveState(&again); err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(again.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.Plans {
		if !p.Cached {
			t.Errorf("re-saved snapshot carries plan %d outside the cache", p.ID)
		}
	}
}

// One fixed list of feedback points — crossing the re-tune threshold, with
// an implied drift reset and one stale-epoch point — goes through three
// routes: a 2-slot mailbox drained by the background applier, the inline
// fallback (no mailbox), and WAL replay into a fresh learner. All three must
// end in byte-identical learner state with equal watermarks and stale-drop
// counts.
func TestDeliveryModesAgree(t *testing.T) {
	const n, resetAt, staleAt = 90, 40, 60
	open := func(queue int, dir string) (*System, *templateState) {
		opts := Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest(), FeedbackQueue: queue}
		opts.TunableLSH = TunableLSHOptions{Enable: true, RetuneEvery: 20, Reservoir: 64}
		if dir != "" {
			opts.Durability = Durability{Dir: dir, Sync: wal.SyncAlways, DisableCheckpointer: true}
		}
		sys, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
			t.Fatal(err)
		}
		st, err := sys.lookup("Q1")
		if err != nil {
			t.Fatal(err)
		}
		return sys, st
	}

	rng := rand.New(rand.NewSource(23))
	list := make([]core.Feedback, n)
	for i := range list {
		x := []float64{0.2 + 0.3*rng.Float64(), 0.2 + 0.3*rng.Float64()}
		fb := core.Feedback{Point: x, Plan: 1 + int(x[0]*8), Cost: 1 + x[0] + x[1]}
		if i >= resetAt && i != staleAt {
			fb.Epoch = 1
		}
		list[i] = fb
	}
	// feed hands each route its own copy of the list.
	feed := func(deliver func(core.Feedback)) {
		for _, fb := range list {
			fb.Point = append([]float64(nil), fb.Point...)
			deliver(fb)
		}
	}

	// The mailbox route delivers in pairs, each followed by a flush, so the
	// two slots never overflow and application order is delivery order.
	mailSys, mail := open(2, t.TempDir())
	defer mailSys.Close() //nolint:errcheck
	delivered := 0
	feed(func(fb core.Feedback) {
		mail.Deliver(fb)
		if delivered++; delivered%2 == 0 {
			mail.flush()
		}
	})

	inlineSys, inline := open(-1, t.TempDir())
	defer inlineSys.Close() //nolint:errcheck
	feed(inline.Deliver)

	// The replay route applies the mailbox route's log to a fresh learner.
	// The stale point never reached the log (it is dropped before the
	// append), so it goes to ApplyBatch at its place in the stream, as the
	// live applier handed it.
	recov, err := wal.Scan(filepath.Join(mailSys.opts.Durability.Dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	split, seen := len(recov.Records), 0
	for i, r := range recov.Records {
		if r.Kind == wal.RecordFeedback {
			if seen == staleAt {
				split = i
				break
			}
			seen++
		}
	}
	if split == len(recov.Records) {
		t.Fatalf("the log holds %d feedback records, want more than %d", seen, staleAt)
	}
	replaySys, replay := open(-1, "")
	defer replaySys.Close() //nolint:errcheck
	replay.online.ApplyLog(recov.Records[:split])
	stale := list[staleAt]
	stale.Point = append([]float64(nil), stale.Point...)
	replay.online.ApplyBatch([]core.Feedback{stale})
	replay.online.ApplyLog(recov.Records[split:])

	want := learnerBytes(t, mail)
	if mail.online.RetuneEpoch() == 0 || mail.online.Epoch() != 1 {
		t.Fatalf("mailbox route ended at retune epoch %d, drift epoch %d; want a re-tune and one reset",
			mail.online.RetuneEpoch(), mail.online.Epoch())
	}
	if c := templateCounters(t, mailSys, "Q1"); c.FeedbackDeferred != 0 {
		t.Errorf("mailbox route applied %d points inline; want all through the applier", c.FeedbackDeferred)
	}
	if c := templateCounters(t, inlineSys, "Q1"); c.FeedbackDeferred != n {
		t.Errorf("inline route deferred %d points, want %d", c.FeedbackDeferred, n)
	}
	for _, r := range []struct {
		name string
		st   *templateState
	}{{"mailbox", mail}, {"inline", inline}, {"replay", replay}} {
		if got := learnerBytes(t, r.st); !bytes.Equal(got, want) {
			t.Errorf("%s route: learner state differs from the mailbox route's", r.name)
		}
		if got, w := r.st.online.AppliedSeq(), mail.online.AppliedSeq(); got != w || got == 0 {
			t.Errorf("%s route: AppliedSeq %d, mailbox route %d", r.name, got, w)
		}
		if got := r.st.online.StaleFeedbackDrops(); got != 1 {
			t.Errorf("%s route: StaleFeedbackDrops %d, want 1", r.name, got)
		}
	}
}
