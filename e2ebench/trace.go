package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Req groups the spans of one request or replayed job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// sp identifies an open span; the zero sp is "no parent".
type sp struct {
	t   *tracer
	id  int64
	req int64
}

// begin opens a span under parent (zero parent: a new root with its own
// request id).
func (t *tracer) begin(name string, parent sp) sp {
	if t == nil {
		return sp{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := span{ID: t.next, Parent: parent.id, Req: parent.req, Name: name, Start: now}
	if parent.id == 0 {
		s.Req = t.next
	}
	t.spans = append(t.spans, s)
	return sp{t: t, id: s.ID, req: s.Req}
}

// end closes the span.
func (s sp) end() {
	if s.t == nil {
		return
	}
	now := int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span name, the self time of every span of that
// name: its duration minus the part of its interval covered by its
// children (overlapping children are counted once).
func selfTimes(spans []span) map[string][]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range cs {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered))
	}
	return out
}

// selfMS is selfTimes for one name, in milliseconds.
func selfMS(self map[string][]time.Duration, name string) []float64 {
	ds := self[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}
