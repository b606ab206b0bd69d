package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestPoissonScheduleIsSeededAndInWindow(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(3)), 500, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 500, time.Second)
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different schedules")
		}
		if a[i] < 0 || a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("offset %d = %v out of order or window", i, a[i])
		}
	}
}

func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	// The generator stalled: the op was due at 10ms, sent at 40ms and
	// answered at 45ms. Its latency is charged from the due time, and the
	// stall shows as lateness.
	op := openLoopOp{due: 10 * time.Millisecond, sent: 40 * time.Millisecond, done: 45 * time.Millisecond}
	if op.latency() != 35*time.Millisecond {
		t.Errorf("latency = %v, want 35ms", op.latency())
	}
	if op.late() != 30*time.Millisecond {
		t.Errorf("late = %v, want 30ms", op.late())
	}
	early := openLoopOp{due: 10 * time.Millisecond, sent: 9 * time.Millisecond, done: 12 * time.Millisecond}
	if early.late() != 0 || early.latency() != 2*time.Millisecond {
		t.Errorf("early op: late %v latency %v", early.late(), early.latency())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "plan", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "solve", Start: 10, End: 50},
		{ID: 3, Parent: 1, Req: 1, Name: "repair", Start: 40, End: 70}, // overlaps solve by 10
		{ID: 4, Parent: 2, Req: 1, Name: "step", Start: 20, End: 30},
		{ID: 5, Parent: 1, Req: 1, Name: "encode", Start: 95, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"plan": 100 - 60 - 5, "solve": 30, "repair": 30, "step": 10, "encode": 25}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("%s self = %v, want %v", name, got, w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", sp{})
	s.end()
	if tr.all() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	tr = newTracer()
	root := tr.begin("root", sp{})
	child := tr.begin("child", root)
	child.end()
	root.end()
	got := tr.all()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Req != got[0].Req || got[0].End < got[1].End {
		t.Fatalf("spans = %+v", got)
	}
}
