package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe measures how fast this machine runs a fixed piece of the
// benchmark's own code while the timed phase runs. On a shared host the
// CPU time of the same work drifts by ±20% within minutes (neighbours
// change the clock frequency and share the caches); the probe drifts with
// it, so dividing by the probe's reading takes most of that drift out of
// plan_cpu_norm_ms. A probe round is a chain of dependent loads over a
// table that fits in L1 and then over one that fits in L2 (as the
// heuristics' PM and VM arrays do on large-ha), with an integer multiply
// per load, timed in thread CPU time.
const (
	// probeRef is the probe round the normalised metric is scaled to:
	// about what a round takes on the 2-vCPU Intel Xeon VM the benchmark
	// was defined on.
	probeRef      = 10 * time.Millisecond
	probeEvery    = 250 * time.Millisecond
	probeL1Words  = 1 << 11 // 16 KiB
	probeL2Words  = 1 << 16 // 512 KiB
	probeSteps    = 1 << 20 // dependent loads per table per round
	clockThreadID = 3       // CLOCK_THREAD_CPUTIME_ID
)

var probeL1, probeL2 = probeTable(probeL1Words), probeTable(probeL2Words)

func probeTable(n int) []uint64 {
	t := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}

// probeSink keeps the probe's result live.
var probeSink uint64

func probeChain(t []uint64, steps int) uint64 {
	h := uint64(1469598103934665603)
	mask := uint64(len(t) - 1)
	for i := 0; i < steps; i++ {
		h ^= t[h&mask]
		h *= 1099511628211
	}
	return h
}

// probeRound runs one round and returns its thread CPU time, which leaves
// out CPU steal and the time the thread waited for a core.
func probeRound() time.Duration {
	start := threadCPU()
	probeSink += probeChain(probeL1, probeSteps) + probeChain(probeL2, probeSteps)
	return threadCPU() - start
}

func threadCPU() time.Duration {
	var ts syscall.Timespec
	// clock_gettime fails only for an unknown clock or a bad address.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// startProbe runs a probe round every probeEvery, on a thread of its own,
// until the returned function is called; that function returns the rounds.
func startProbe() (stop func() []time.Duration) {
	var rounds []time.Duration
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		probeRound() // warm the tables
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				rounds = append(rounds, probeRound())
			}
		}
	}()
	return func() []time.Duration {
		close(done)
		wg.Wait()
		return rounds
	}
}
