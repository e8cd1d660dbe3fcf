package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: spRequest, parent: -1, start: 0, end: 100},
		{name: spRun, parent: 0, start: 10, end: 40},         // 30
		{name: spInstantiate, parent: 0, start: 30, end: 50}, // overlaps the run by 10
		{name: spExec, parent: 0, start: 90, end: 120},       // sticks out of the parent by 20
		{name: spAttribute, parent: 3, start: 95, end: 100},  // grandchild: not the root's
		{name: spRequest, parent: -1, start: 200, end: 210},  // a second root, no children
		{name: spPredict, parent: 5, start: 200, end: 210},   // covers its parent exactly
		{name: spOptimize, parent: 5, start: 202, end: 205},  // nested inside a sibling
	}
	want := []int64{
		100 - (40 - 10) - (50 - 40) - (100 - 90), // children cover [10,50] and [90,100]
		30,
		20,
		30 - 5,
		5,
		0,
		10,
		3,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spanNames[spans[i].name], got[i], want[i])
		}
	}
}

func TestLedgerResidual(t *testing.T) {
	spans := []span{
		{name: spRequest, parent: -1, req: 1, start: 0, end: 300},
		{name: spRun, parent: 0, req: 1, start: 0, end: 100},
		{name: spPredict, parent: 0, req: 1, start: 100, end: 130},
		{name: spExec, parent: 0, req: 1, start: 130, end: 190},
		// A partial request stays out of the residual.
		{name: spRequest, parent: -1, req: 2, partial: true, start: 300, end: 500},
		{name: spRun, parent: 4, req: 2, start: 300, end: 500},
	}
	lg := buildLedger(spans)
	if lg.residualFrac != 0.1 {
		t.Errorf("residual %v, want 0.1", lg.residualFrac)
	}
	if lg.partial != 1 || lg.requests != 2 {
		t.Errorf("partial %d of %d requests, want 1 of 2", lg.partial, lg.requests)
	}
	if got := lg.meanUs(spExec); got != 0.06 {
		t.Errorf("exec mean %v us, want 0.06", got)
	}
}
