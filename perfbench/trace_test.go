package main

import (
	"sync"
	"testing"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{id: 1, name: "cg.solve", start: 0, end: 100},
		{id: 2, parent: 1, name: "core.pricer", start: 10, end: 30},
		{id: 3, parent: 1, name: "core.pricer", start: 50, end: 60},
		{id: 4, parent: 3, name: "inner", start: 52, end: 55},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 70, 2: 20, 3: 7, 4: 3} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

// TestSelfTimeOverlappingSiblings covers two host workers stepping
// cells at once: sibling spans overlap, and the parent's self time is
// what no child covers, not its duration minus the children's sum.
func TestSelfTimeOverlappingSiblings(t *testing.T) {
	spans := []span{
		{id: 1, name: "host.step", start: 0, end: 100},
		{id: 2, parent: 1, name: "pnc.epoch", start: 5, end: 45},   // worker A
		{id: 3, parent: 1, name: "pnc.epoch", start: 10, end: 40},  // worker B, inside A's
		{id: 4, parent: 1, name: "pnc.epoch", start: 42, end: 80},  // worker B, overlaps A's end
		{id: 5, parent: 1, name: "pnc.epoch", start: 90, end: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	// Covered: [5,80) and [90,100) = 85.
	if self[1] != 15 {
		t.Errorf("host.step self %d, want 15", self[1])
	}
	tt := totals(spans)
	if tt.count["pnc.epoch"] != 4 || tt.dur["pnc.epoch"] != 40+30+38+30 || tt.self["host.step"] != 15 {
		t.Errorf("totals = %+v", tt)
	}
}

func TestSelfTimeIgnoresOtherParents(t *testing.T) {
	spans := []span{
		{id: 1, name: "a", start: 0, end: 10},
		{id: 2, name: "b", start: 0, end: 10},
		{id: 3, parent: 2, name: "c", start: 0, end: 10},
		{id: 4, parent: 9, name: "orphan", start: 0, end: 10},
	}
	self := selfTimes(spans)
	if self[1] != 10 || self[2] != 0 || self[4] != 10 {
		t.Errorf("self = %v", self)
	}
}

// TestRecorderConcurrent records spans from two goroutines at once, as
// the pricer wrappers of cells on different host workers do.
func TestRecorderConcurrent(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("host.step", 0)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.finish(rec.begin("core.pricer", root))
			}
		}()
	}
	wg.Wait()
	rec.finish(root)
	spans := rec.closed()
	if len(spans) != 201 {
		t.Fatalf("%d closed spans, want 201", len(spans))
	}
	if self := selfTimes(spans)[root]; self < 0 || self > spans[0].dur() {
		t.Errorf("root self %d outside [0, %d]", self, spans[0].dur())
	}
}

func TestNilRecorderIsFree(t *testing.T) {
	var rec *recorder
	id := rec.begin("x", 0)
	rec.finish(id)
	if id != 0 || rec.closed() != nil {
		t.Error("nil recorder recorded something")
	}
}
