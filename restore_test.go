package ppc

// Restored plans serve on the one compiled path. Both restore routes —
// SaveState into LoadState, and Open on a checkpointed durability
// directory — rebuild every cache entry through compilePlan, so a hit on a
// restored plan harvests cardinalities, candidate routing works on the
// restored set, and answers match the live System's.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// restoreOptions is the substrate both the live and the restored Systems
// open with: the distorted candidate substrate (so Q1 has several
// candidate plans) and synchronous feedback.
func restoreOptions() Options {
	return Options{
		TPCH:          tpch.Config{Scale: 1000, Seed: 5},
		Online:        onlineForTest(),
		FeedbackQueue: -1,
		StatsWrap:     distortLineitem,
		Candidates:    CandidatesOptions{Enable: true},
	}
}

// qerrorSamples is the template's lifetime count of estimation q-error
// samples.
func qerrorSamples(t *testing.T, sys *System, name string) uint64 {
	t.Helper()
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range snap.Templates {
		if tm.Template == name {
			return tm.EstimationQError.Count
		}
	}
	t.Fatalf("no metrics for template %s", name)
	return 0
}

// sortedRows renders a result as a sorted multiset of rows, so answers of
// different (equally correct) plans compare equal.
func sortedRows(r *executor.Result) []string {
	rows := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return rows
}

func TestRestoredPlansServeCompiled(t *testing.T) {
	routes := []struct {
		name    string
		restore func(t *testing.T, live *System, dir string) *System
	}{
		{"SaveState-LoadState", func(t *testing.T, live *System, _ string) *System {
			var buf bytes.Buffer
			if err := live.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			sys, err := Open(restoreOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadState(&buf); err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"checkpoint-Open", func(t *testing.T, live *System, dir string) *System {
			if err := live.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			opts := restoreOptions()
			opts.Durability = Durability{Dir: crashImage(t, dir), Sync: wal.SyncAlways, DisableCheckpointer: true}
			sys, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := restoreOptions()
			opts.Durability = Durability{Dir: dir, Sync: wal.SyncAlways, DisableCheckpointer: true}
			live, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close() //nolint:errcheck
			if err := live.Register("Q1", mustSQL(t, "Q1")); err != nil {
				t.Fatal(err)
			}
			tmpl, _ := live.Template("Q1")
			rng := rand.New(rand.NewSource(3))
			var values [][]float64
			for i := 0; i < 160; i++ {
				inst, err := live.Optimizer().InstanceAt(tmpl, []float64{0.25 + rng.Float64()*0.1, 0.25 + rng.Float64()*0.1})
				if err != nil {
					t.Fatal(err)
				}
				values = append(values, inst.Values)
				if _, err := live.Run("Q1", inst.Values); err != nil {
					t.Fatal(err)
				}
			}

			sys := route.restore(t, live, dir)
			defer sys.Close() //nolint:errcheck
			if rep := sys.LoadStateReport(); rep.Corrupt || rep.Plans == 0 {
				t.Fatalf("restore report: %+v", rep)
			}
			st, err := sys.lookup("Q1")
			if err != nil {
				t.Fatal(err)
			}
			// Candidate routing re-costs the restored candidate set.
			if ids := candidateFingerprints(st); len(ids) < 2 {
				t.Fatalf("restored candidate set has %d plans; test is vacuous", len(ids))
			}
			if _, _, ok := sys.candidateRoute(st, values[0]); !ok {
				t.Error("candidateRoute did not route on the restored System")
			}

			hits := 0
			var hitSamples uint64
			for i, v := range values[:40] {
				before := qerrorSamples(t, sys, "Q1")
				got, err := sys.Run("Q1", v)
				if err != nil {
					t.Fatal(err)
				}
				if got.CacheHit {
					hits++
					hitSamples += qerrorSamples(t, sys, "Q1") - before
				}
				want, err := live.Run("Q1", v)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := sortedRows(got.Result), sortedRows(want.Result); fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("run %d: restored answer (%d rows) differs from live (%d rows)", i, len(g), len(w))
				}
			}
			if hits == 0 {
				t.Fatal("no cache hits on the restored System; test is vacuous")
			}
			if hitSamples == 0 {
				t.Errorf("%d restored hits recorded no q-error samples", hits)
			}
		})
	}
}

// TestCompileFailureIsTypedError: a plan the compilers reject never enters
// the cache. Interning it is a *PipelineError of stage "compile", and
// restoring it is reported as damage while the rest of the state serves.
func TestCompileFailureIsTypedError(t *testing.T) {
	warm, values := warmSystem(t, 4)
	st, err := warm.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	bad := &optimizer.Plan{Root: &optimizer.Node{Op: optimizer.OpSeqScan, Table: "nope", Alias: "x"}, Fingerprint: "bad"}
	before := warm.CacheLen()
	_, _, err = warm.internPlan(st, bad)
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != "compile" {
		t.Fatalf("internPlan error = %v, want a compile-stage *PipelineError", err)
	}
	if warm.CacheLen() != before {
		t.Error("a plan that does not compile entered the cache")
	}

	// Plant the tree in the index and the cache, as a snapshot written by a
	// damaged process could carry it, and restore.
	warm.cacheMu.Lock()
	warm.planByID[1<<20] = &cachedPlan{owner: st, plan: bad}
	warm.cache.Put(1<<20, bad)
	warm.cacheMu.Unlock()
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close() //nolint:errcheck
	if err := cold.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	rep := cold.LoadStateReport()
	if !rep.Corrupt || !strings.Contains(rep.Reason, "compile") || rep.Plans == 0 {
		t.Fatalf("restore report %+v: want the uncompilable plan reported and the rest restored", rep)
	}
	cold.cacheMu.RLock()
	_, kept := cold.planByID[1<<20]
	cold.cacheMu.RUnlock()
	if kept {
		t.Error("the uncompilable plan was restored into the cache")
	}
	for _, v := range values[:20] {
		if _, err := cold.Run("Q1", v); err != nil {
			t.Fatal(err)
		}
	}
}
