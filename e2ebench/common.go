package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/trace"
)

// setupRounds is how many times each run sets the fleet up; setup_s is
// their median.
const setupRounds = 15

// replayWorkers is how many goroutines replay jobs after an untraced run,
// one per core of the 2-core machine the benchmark was defined on.
const replayWorkers = 2

// encodeMapping renders a generated cluster in the trace JSON schema and
// the session request that registers it.
func encodeMapping(c *cluster.Cluster, id string, seed int64) (mapping, req []byte, err error) {
	var buf bytes.Buffer
	if err := trace.WriteMapping(&buf, c); err != nil {
		return nil, nil, err
	}
	req, err = json.Marshal(sessionReq{Mapping: buf.Bytes(), ID: id, Seed: seed})
	return buf.Bytes(), req, err
}

// flavors lists the flavor names a profile's VMs are drawn from.
func flavors(profile string) []string {
	var out []string
	for _, tw := range trace.MustProfile(profile).VMMix {
		if tw.Weight > 0 {
			out = append(out, tw.Type.Name)
		}
	}
	return out
}

// churnEvent is one seeded exit-by-id plus one arrival-by-flavor.
func churnEvent(m *mirror, rng *rand.Rand, names []string) []eventJSON {
	vm := m.placedVM(rng)
	return []eventJSON{{Arrive: false, VM: &vm}, {Arrive: true, Type: names[rng.Intn(len(names))]}}
}

// checkAdmission compares the servers' admission counters with what the
// generator saw: every 202 is an accepted job, and no server shed more
// jobs than the generator was answered 503 for.
func (b *bench) checkAdmission(urls []string) uint64 {
	var acc, shed uint64
	for _, u := range urls {
		var st statsJSON
		code, _, _, err := call(b.hc, http.MethodGet, u+"/v2/stats", nil, &st)
		b.count("check", code, err == nil)
		if err != nil {
			b.fail("stats: %v", err)
			return 0
		}
		acc += st.Accepted
		shed += st.Shed
	}
	var got202, got503 uint64
	for _, j := range b.jobs {
		switch j.code {
		case http.StatusAccepted:
			got202++
		case http.StatusServiceUnavailable:
			got503++
		}
	}
	if acc != got202 {
		b.fail("servers accepted %d jobs, generator saw %d accepted", acc, got202)
	}
	if shed > got503 {
		b.fail("servers shed %d jobs, generator saw %d 503s", shed, got503)
	}
	return shed
}

// checkMirrors compares every session with its mirror.
func (b *bench) checkMirrors(base string, ids []string, ms []*mirror) {
	for i, id := range ids {
		var st sessionJSON
		code, _, _, err := call(b.hc, http.MethodGet, base+"/v2/clusters/"+id, nil, &st)
		b.count("check", code, err == nil)
		if err != nil {
			b.fail("session %s: %v", id, err)
			continue
		}
		if d := ms[i].diff(st); d != "" {
			b.fail("session %s drifted from its mirror: %s", id, d)
		}
	}
}

// observe brackets the timed phase and runs the host probe through it:
// the returned stop function records the probe's rounds, the CPU time the
// server processes used meanwhile, the summed VmHWM (peak resident set) of
// the server processes as service.rss_peak_mb, and the share of CPU time
// the hypervisor stole meanwhile as bench.cpu_steal_frac.
func (b *bench) observe(ps []*proc) (stop func() error) {
	stopProbe := startProbe()
	steal0, total0, err0 := cpuSteal()
	var cpu0 time.Duration
	for _, p := range ps {
		d, err := cpuTime(p)
		cpu0 += d
		err0 = errors.Join(err0, err)
	}
	return func() error {
		b.probe = stopProbe()
		steal1, total1, err1 := cpuSteal()
		var cpu1 time.Duration
		for _, p := range ps {
			d, err := cpuTime(p)
			cpu1 += d
			err1 = errors.Join(err1, err)
		}
		if err := errors.Join(err0, err1); err != nil {
			return err
		}
		b.serverCPU = cpu1 - cpu0
		b.layer["bench.cpu_steal_frac"] = frac(steal1-steal0, total1-total0)
		b.rssMB = 0
		for _, p := range ps {
			mb, err := statusMB(p, "VmHWM")
			if err != nil {
				return err
			}
			b.rssMB += mb
		}
		return nil
	}
}

// cpuSteal reads the machine-wide steal and total jiffies from /proc/stat.
func cpuSteal() (steal, total int, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, f := range fields[1:] {
		n, err := strconv.Atoi(f)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// probeSnapshots times durable-session snapshot reads on each session's
// owner (traced runs only).
func (b *bench) probeSnapshots(owners, ids []string) {
	var took, kb []float64
	for rep := 0; rep < 3; rep++ {
		for i, id := range ids {
			s := b.tr.begin("http.snapshot", sp{})
			code, raw, d, err := call(b.hc, http.MethodGet, owners[i]+"/v2/clusters/"+id+"/snapshot", nil, nil)
			s.end()
			b.count("probe", code, err == nil)
			if err != nil {
				b.fail("snapshot %s: %v", id, err)
				continue
			}
			took = append(took, ms(d))
			kb = append(kb, float64(len(raw))/1024)
		}
	}
	b.layer["service.snapshot_ms_p50"] = percentile(took, 50)
	b.layer["service.snapshot_kb"] = mean(kb)
}

// decodeLayer times trace.ReadMapping of each workload mapping (median of
// three decodes each).
func (b *bench) decodeLayer(mappings [][]byte) error {
	var took []float64
	for _, m := range mappings {
		for rep := 0; rep < 3; rep++ {
			s := b.tr.begin("trace.decode", sp{})
			start := time.Now()
			_, err := trace.ReadMapping(bytes.NewReader(m))
			took = append(took, ms(time.Since(start)))
			s.end()
			if err != nil {
				return err
			}
		}
	}
	b.layer["trace.decode_ms"] = percentile(took, 50)
	return nil
}

// replayAll replays every distinct job state (jobs on a static session
// share one) and checks that each served plan equals its replay. Untraced
// runs use replayWorkers goroutines; traced runs replay one state at a time,
// untraced and then traced, so layer timings are uncontended and the two
// passes give the tracing overhead.
func (b *bench) replayAll(jobs []*jobRec, snaps []*cluster.Cluster, eng engine, mnl int) error {
	idx := map[*cluster.Cluster]int{}
	var uniq []*cluster.Cluster
	for _, c := range snaps {
		if _, ok := idx[c]; !ok {
			idx[c] = len(uniq)
			uniq = append(uniq, c)
		}
	}
	plain := make([]*planJSON, len(uniq))
	took := make([]time.Duration, len(uniq))
	errs := make([]error, len(uniq))
	workers := replayWorkers
	if b.tr != nil {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				plain[i], errs[i] = replay(uniq[i], eng, mnl)
				took[i] = time.Since(start)
			}
		}()
	}
	for i := range uniq {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	traced := make([]*planJSON, len(uniq))
	if b.tr != nil {
		var plainTotal time.Duration
		var proofs []float64
		for i, c := range uniq {
			var proof time.Duration
			var err error
			traced[i], proof, err = replayTraced(b.tr, c, eng, mnl)
			if err != nil {
				return fmt.Errorf("traced replay: %w", err)
			}
			plainTotal += took[i]
			proofs = append(proofs, ms(proof))
		}
		var tracedTotal time.Duration
		for _, s := range b.tr.all() {
			if s.Name == "replay" {
				tracedTotal += time.Duration(s.End - s.Start)
			}
		}
		b.layer["bench.tracing_overhead_frac"] = tracedTotal.Seconds()/plainTotal.Seconds() - 1
		if eng.sv != nil {
			b.layer["heuristics.proof_ms_p50"] = percentile(proofs, 50)
		}
	}
	for k, j := range jobs {
		i := idx[snaps[k]]
		if d := planDiff(j.res, plain[i]); d != "" {
			b.fail("job %s on session %d differs from its replay: %s", j.id, j.sess, d)
		}
		if traced[i] != nil {
			if d := planDiff(j.res, traced[i]); d != "" {
				b.fail("job %s on session %d differs from its traced replay: %s", j.id, j.sess, d)
			}
		}
	}
	return nil
}
