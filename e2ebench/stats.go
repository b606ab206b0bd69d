package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail timing may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples;
// the epsilon keeps p·n/100 that is integral in decimal (99.9 × 10000)
// from rounding up through binary error.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := rank(len(s), p) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// poissonSchedule returns the send offsets of an open-loop Poisson stream
// with n arrivals in [0, window): given the count, Poisson arrival times
// are independent and uniform, so fixing n keeps the offered load of every
// run identical while the spacing stays random.
func poissonSchedule(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoopOp is one operation of an open-loop stream: when it was due,
// when the generator actually sent it, and when it completed.
type openLoopOp struct {
	due, sent, done time.Duration
}

// latency is counted from the due time, so a stall of the system under
// test (or of the generator) is charged to every request it delays. A
// closed-loop operation is due when it is sent.
func (o openLoopOp) latency() time.Duration { return o.done - o.due }

// late is how far behind its schedule the generator sent the operation.
func (o openLoopOp) late() time.Duration {
	if o.sent < o.due {
		return 0
	}
	return o.sent - o.due
}
