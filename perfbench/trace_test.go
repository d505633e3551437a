package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 35},  // grandchild: b's, not root's
		{ID: 6, Parent: 1, Name: "d", Start: 200, End: 300}, // outside the parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 100}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerRecordsRequestsAndNilRecordsNothing(t *testing.T) {
	var off *Tracer
	off.do(spanRef{}, "x", func(s spanRef) { off.do(s, "y", func(spanRef) {}) })
	if off.Spans() != nil {
		t.Fatal("a nil tracer recorded spans")
	}

	tr := newTracer()
	for i := 0; i < 2; i++ {
		tr.do(spanRef{}, "request", func(s spanRef) {
			tr.do(s, "layer", func(c spanRef) { tr.do(c, "inner", func(spanRef) {}) })
		})
	}
	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6", len(spans))
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		if s.Parent != 0 && spans[s.Parent-1].Req != s.Req {
			t.Errorf("span %d has another request than its parent", s.ID)
		}
	}
	if spans[0].Req == spans[3].Req {
		t.Error("two requests share an ID")
	}
	ix := indexSpans(spans)
	if got := len(ix.times("request", "inner", true)); got != 2 {
		t.Errorf("found %d inner spans under request roots, want 2", got)
	}
}

func TestSpanCostIsPerPair(t *testing.T) {
	if c := spanCost(1000, 3); c <= 0 || c > time.Millisecond {
		t.Errorf("one begin/end pair costs %v", c)
	}
}
