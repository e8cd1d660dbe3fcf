package plancache

import "testing"

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("expected error for capacity 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(-1, nil)
}

func TestPutGetBasics(t *testing.T) {
	c := MustNew(2, nil)
	if ev := c.Put(1, "plan1"); ev != -1 {
		t.Errorf("eviction on first put: %d", ev)
	}
	c.Put(2, "plan2")
	e, ok := c.Get(1)
	if !ok || e.Plan != "plan1" || e.Hits != 1 {
		t.Errorf("Get(1) = %+v, %v", e, ok)
	}
	if _, ok := c.Get(99); ok {
		t.Error("Get(99) should miss")
	}
	if !c.Contains(2) || c.Contains(99) {
		t.Error("Contains wrong")
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Errorf("Len=%d Cap=%d", c.Len(), c.Capacity())
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(2, nil)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Get(1) // 2 becomes LRU
	if ev := c.Put(3, "c"); ev != 2 {
		t.Errorf("evicted %d, want 2", ev)
	}
	if c.Contains(2) {
		t.Error("evicted plan still present")
	}
	if c.Evictions() != 1 {
		t.Errorf("Evictions = %d", c.Evictions())
	}
}

func TestPutRefreshDoesNotEvict(t *testing.T) {
	c := MustNew(2, nil)
	c.Put(1, "a")
	c.Put(2, "b")
	if ev := c.Put(1, "a2"); ev != -1 {
		t.Errorf("refresh evicted %d", ev)
	}
	e, _ := c.Get(1)
	if e.Plan != "a2" {
		t.Error("refresh did not update plan")
	}
}

func TestPrecisionAwareEviction(t *testing.T) {
	// Plan 1 is recently used but error-prone (precision 0.1); plan 2 is
	// older but precise (precision 1.0). The precision-weighted policy
	// must evict plan 1 even though LRU would evict plan 2.
	prec := func(planID int) (float64, bool) {
		if planID == 1 {
			return 0.1, true
		}
		return 1.0, true
	}
	c := MustNew(2, prec)
	c.Put(2, "precise")
	c.Put(1, "sloppy") // most recent
	if ev := c.Put(3, "new"); ev != 1 {
		t.Errorf("evicted %d, want sloppy plan 1", ev)
	}
}

func TestUnknownPrecisionIsNeutral(t *testing.T) {
	prec := func(planID int) (float64, bool) { return 0, false }
	c := MustNew(2, prec)
	c.Put(1, "a")
	c.Put(2, "b")
	if ev := c.Put(3, "c"); ev != 1 {
		t.Errorf("evicted %d, want LRU victim 1", ev)
	}
}

func TestDropAndClear(t *testing.T) {
	c := MustNew(4, nil)
	c.Put(1, "a")
	c.Put(2, "b")
	if !c.Drop(1) || c.Drop(1) {
		t.Error("Drop semantics wrong")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	c.Clear()
	if c.Len() != 0 || c.Contains(2) {
		t.Error("Clear failed")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := MustNew(3, nil)
	for i := 0; i < 100; i++ {
		c.Put(i, i)
		if c.Len() > 3 {
			t.Fatalf("capacity exceeded at %d: %d", i, c.Len())
		}
	}
	if c.Evictions() != 97 {
		t.Errorf("Evictions = %d, want 97", c.Evictions())
	}
}

func TestTouchSemantics(t *testing.T) {
	c := MustNew(2, nil)
	c.Put(1, "a")
	c.Put(2, "b")
	if !c.Touch(1) {
		t.Fatal("Touch(1) on a cached plan must succeed")
	}
	// 1 is now most recent: inserting 3 must evict 2, not 1.
	c.Put(3, "c")
	if !c.Contains(1) || c.Contains(2) {
		t.Errorf("after touch+insert: contains(1)=%v contains(2)=%v", c.Contains(1), c.Contains(2))
	}
	st := c.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1 (from Touch)", st.Hits)
	}
	// Touching an absent plan is a no-op: no hit, no miss.
	if c.Touch(99) {
		t.Error("Touch of absent plan must report false")
	}
	after := c.Stats()
	if after.Hits != st.Hits || after.Misses != st.Misses {
		t.Errorf("absent Touch changed counters: %+v -> %+v", st, after)
	}
	// Get of an absent plan does count a miss — the contrast with Touch.
	if _, ok := c.Get(99); ok {
		t.Fatal("Get(99) should miss")
	}
	if c.Stats().Misses != after.Misses+1 {
		t.Error("Get of absent plan must count a miss")
	}
}

func TestStatsLifetimeCounters(t *testing.T) {
	c := MustNew(2, nil)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Get(1)
	c.Get(7)      // miss
	c.Put(3, "c") // evicts
	st := c.Stats()
	want := Stats{Len: 2, Capacity: 2, Hits: 1, Misses: 1, Puts: 3, Evictions: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	// Clear empties occupancy but preserves history.
	c.Clear()
	st = c.Stats()
	if st.Len != 0 {
		t.Errorf("after clear: len = %d", st.Len)
	}
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 3 || st.Evictions != 1 {
		t.Errorf("clear rewound lifetime counters: %+v", st)
	}
}
