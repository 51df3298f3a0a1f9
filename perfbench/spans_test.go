package main

import "testing"

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		// Two overlapping children cover [10, 50]; a third covers [60, 70].
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},
		{Name: "c", Parent: 0, Start: 60, End: 70},
		// A grandchild counts against its parent only.
		{Name: "c1", Parent: 3, Start: 62, End: 66},
		// A child running past its parent is clipped to the parent.
		{Name: "late", Parent: 1, Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 5, 20, 10 - 4, 4, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeOfLeafAndUnclosedSpans(t *testing.T) {
	spans := []span{
		{Name: "leaf", Parent: -1, Start: 5, End: 17},
		{Name: "open", Parent: -1, Start: 20, End: -1},
	}
	got := selfTimes(spans)
	if got[0] != 12 || got[1] != 0 {
		t.Fatalf("self times = %v, want [12 0]", got)
	}
}

func TestSelfAllocsAndDescendants(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Alloc: 100},
		{Name: "a", Parent: 0, Alloc: 30},
		{Name: "b", Parent: 0, Alloc: 50},
		{Name: "other", Parent: -1, Alloc: 7},
		{Name: "b1", Parent: 2, Alloc: 80},
	}
	if got := selfAllocs(spans); got[0] != 20 || got[1] != 30 || got[2] != 0 || got[3] != 7 {
		t.Fatalf("self allocs = %v, want [20 30 0 7 80]", got)
	}
	in := descendants(spans, 0)
	want := []bool{true, true, true, false, true}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("descendants of root = %v, want %v", in, want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.call(-1, "x", func() { ran = true })
	if !ran || tr.begin(-1, "y") != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer must run the call and record nothing")
	}
}
