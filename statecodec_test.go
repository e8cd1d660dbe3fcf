package ppc

// Tests of the system state codec at the facade: plan trees survive a
// SaveState/LoadState round trip field for field, and a snapshot whose
// envelope is intact but one learner is not restores that template cold
// while keeping the rest.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/queries"
	"repro/internal/snapshot"
	"repro/internal/tpch"
)

// TestSaveStateRestoresEveryPlanTree interns plans of every standard
// template (Q0–Q8) and requires every tree LoadState restores to be
// reflect.DeepEqual to the saved one. The plan tree codec is hand-written,
// so this is what catches a Node field it forgets.
func TestSaveStateRestoresEveryPlanTree(t *testing.T) {
	opts := Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()}
	warm, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close() //nolint:errcheck
	rng := rand.New(rand.NewSource(5))
	for _, d := range queries.Defs {
		if err := warm.Register(d.Name, d.SQL); err != nil {
			t.Fatal(err)
		}
		tmpl, err := warm.Template(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			point := make([]float64, tmpl.Degree())
			for j := range point {
				point[j] = 0.05 + rng.Float64()*0.9
			}
			inst, err := warm.Optimizer().InstanceAt(tmpl, point)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Run(d.Name, inst.Values); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close() //nolint:errcheck
	if err := cold.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if rep := cold.LoadStateReport(); rep.Corrupt {
		t.Fatalf("intact snapshot reported damage: %s", rep.Reason)
	}
	warm.cacheMu.RLock()
	defer warm.cacheMu.RUnlock()
	cold.cacheMu.RLock()
	defer cold.cacheMu.RUnlock()
	owners := map[string]bool{}
	for id, want := range warm.planByID {
		got := cold.planByID[id]
		if got == nil {
			t.Fatalf("plan %d (%s) was not restored", id, want.owner.tmpl.Name)
		}
		if !reflect.DeepEqual(got.plan, want.plan) {
			t.Fatalf("plan %d (%s) restored as\n%s\nwant\n%s", id, want.owner.tmpl.Name, got.plan, want.plan)
		}
		owners[want.owner.tmpl.Name] = true
	}
	if len(owners) != len(queries.Defs) {
		t.Fatalf("plans interned for %d of %d templates; test is vacuous", len(owners), len(queries.Defs))
	}
}

// TestLoadStateColdTemplateOnBadLearner builds a snapshot with a valid
// envelope in which one template's learner section does not decode. That
// template must come back registered but cold and be listed in
// ColdTemplates, the others restored, and the report marked Corrupt.
func TestLoadStateColdTemplateOnBadLearner(t *testing.T) {
	warm, values := warmSystem(t, 3)
	defer warm.Close() //nolint:errcheck
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Templates) != 2 || st.Templates[1].Name != "Q1" {
		t.Fatalf("saved templates %+v, want Q0 and Q1", st.Templates)
	}
	st.Templates[1].Learner = st.Templates[1].Learner[:len(st.Templates[1].Learner)/2]

	cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close() //nolint:errcheck
	if err := cold.LoadState(bytes.NewReader(st.Encode())); err != nil {
		t.Fatalf("a bad learner must degrade, not fail: %v", err)
	}
	rep := cold.LoadStateReport()
	if !rep.Corrupt || rep.Reason == "" || !reflect.DeepEqual(rep.ColdTemplates, []string{"Q1"}) || rep.Templates != 1 {
		t.Fatalf("report %+v: want Q1 cold and listed, Q0 restored, Corrupt set", rep)
	}
	for name, wantWarm := range map[string]bool{"Q0": true, "Q1": false} {
		want, err := warm.TemplateStats(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cold.TemplateStats(name)
		if err != nil {
			t.Fatalf("%s not registered after restore: %v", name, err)
		}
		if wantWarm && got.SamplesAbsorbed != want.SamplesAbsorbed {
			t.Errorf("%s restored %d samples, want %d", name, got.SamplesAbsorbed, want.SamplesAbsorbed)
		}
		if !wantWarm && got.SamplesAbsorbed != 0 {
			t.Errorf("%s holds %d samples, want a cold learner", name, got.SamplesAbsorbed)
		}
	}
	// The cold template serves and learns.
	for _, v := range values[:20] {
		if _, err := cold.Run("Q1", v); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := cold.TemplateStats("Q1"); got.SamplesAbsorbed == 0 {
		t.Error("the recreated cold learner does not learn")
	}
}
