package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the system, recorded from the
// benchmark's side of the call. Spans of one request (one query, one
// mutation batch, one pipeline stage) share Req; Parent is the span that
// caused this one, 0 for a request's root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the untraced pass of a traced run executes the very same code.
type Tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []Span
	nextReq int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// spanRef is the handle of an open span; the zero value means "no parent".
type spanRef struct{ id, req int }

// begin opens a span under parent; a zero parent starts a new request.
func (t *Tracer) begin(parent spanRef, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	req := parent.req
	if parent.id == 0 {
		t.nextReq++
		req = t.nextReq
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent.id, Req: req, Name: name, Start: now})
	return spanRef{id: id, req: req}
}

// end closes a span opened by begin.
func (t *Tracer) end(s spanRef) {
	if t == nil || s.id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[s.id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span named name under parent.
func (t *Tracer) do(parent spanRef, name string, f func(spanRef)) {
	s := t.begin(parent, name)
	defer t.end(s)
	f(s)
}

// spanCost is the tracer's own cost per span: the median over reps of the
// time one begin/end pair takes on a fresh tracer, timed over n pairs
// nested under one root as a layer's spans are.
func spanCost(n, reps int) time.Duration {
	costs := make([]float64, reps)
	for i := range costs {
		tr := newTracer()
		root := tr.begin(spanRef{}, "root")
		t0 := time.Now()
		for j := 0; j < n; j++ {
			tr.end(tr.begin(root, "span"))
		}
		costs[i] = float64(time.Since(t0)) / float64(n)
		tr.end(root)
	}
	return time.Duration(median(costs))
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the parent
// and overlapping children count once, so concurrent children never drive
// a self time below zero.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// spanIndex answers per-layer questions about a finished trace.
type spanIndex struct {
	spans []Span
	self  map[int]time.Duration
	byID  map[int]Span
}

func indexSpans(spans []Span) *spanIndex {
	ix := &spanIndex{spans: spans, self: selfTimes(spans), byID: make(map[int]Span, len(spans))}
	for _, s := range spans {
		ix.byID[s.ID] = s
	}
	return ix
}

// root returns the name of the request root above s.
func (ix *spanIndex) root(s Span) string {
	for s.Parent != 0 {
		s = ix.byID[s.Parent]
	}
	return s.Name
}

// times returns, for every span called name under a root called root, its
// self time (self) or its whole duration, in milliseconds.
func (ix *spanIndex) times(root, name string, self bool) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name != name || ix.root(s) != root {
			continue
		}
		d := s.Dur()
		if self {
			d = ix.self[s.ID]
		}
		out = append(out, durMs(d))
	}
	return out
}
