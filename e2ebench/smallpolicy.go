package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/serve"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

// small-policy: independent users submitting vmr2l session jobs (MNL 10)
// on a fixed Poisson schedule, round-robin over 32 static sessions on
// workload-mid-small mappings fragmented to FR >= 0.10 (as the diurnal
// scenario builds them). One more session takes a low-rate open-loop event
// feed, so events_ms shows what the policy load does to the write path;
// the job sessions never change, which makes every plan replayable.
const (
	smallPolicyRate      = 2.0 // jobs/s: about a quarter of what the seed commit sustains (see METRICS.md)
	smallPolicyEventRate = 10.0
	// smallPolicySessions is 32, not 8: a plan's cost follows its
	// mapping's VM count, and with 8 sessions the median plan moved ~15%
	// between seeds on the mappings alone.
	smallPolicySessions     = 32
	smallPolicyMNL          = 10
	smallPolicyPollInterval = 10 * time.Millisecond
	// modelSeed fixes the random-init checkpoint: the model is part of the
	// benchmark, not of the workload's seeded inputs.
	modelSeed = 1
	// schedulerConcurrency is how many rollouts the traced run's scheduler
	// pass keeps in flight.
	schedulerConcurrency = 4
	// scheduleSeed fixes the open-loop arrival times. The Poisson schedule
	// is part of the workload's definition, like its rate, so every run and
	// every commit sees the same bursts; --seed varies what is sent.
	scheduleSeed = 1
)

// servingModel is the server's default model shape (-dmodel 32, -blocks 2,
// -extractor sparse, two-stage actions).
func servingModel() *policy.Model {
	return policy.New(policy.Config{
		DModel: 32, Hidden: 64, Blocks: 2,
		Extractor: policy.SparseAttention, Action: policy.TwoStage, Seed: modelSeed,
	})
}

// sendOp is one open-loop send: a job (sess >= 0) or an events request.
type sendOp struct {
	due  time.Duration
	sess int // -1: events request on the feed session
}

func runSmallPolicy(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	prof := trace.MustProfile("workload-mid-small")
	var (
		mappings [][]byte
		reqs     [][]byte
		states   []*cluster.Cluster
		ids      []string
	)
	for i := 0; i <= smallPolicySessions; i++ {
		c := prof.GenerateFragmented(rng, 0.10, 20)
		id := fmt.Sprintf("sp-%d", i)
		if i == smallPolicySessions {
			c = prof.GenerateMapping(rng)
			id = "sp-feed"
		}
		mapping, req, err := encodeMapping(c, id, b.seed+int64(i))
		if err != nil {
			return err
		}
		mappings, reqs, ids = append(mappings, mapping), append(reqs, req), append(ids, id)
		states = append(states, c)
	}
	model := servingModel()
	ckpt := filepath.Join(b.work, "model.ckpt")
	if err := model.Params.SaveCKPTFile(ckpt, "f64"); err != nil {
		return err
	}
	feed, err := newMirror(mappings[smallPolicySessions], b.seed+smallPolicySessions)
	if err != nil {
		return err
	}
	names := flavors("workload-mid-small")

	window := b.window
	sched := rand.New(rand.NewSource(scheduleSeed))
	ops := make([]sendOp, 0)
	for i, due := range poissonSchedule(sched, int(math.Round(smallPolicyRate*window.Seconds())), window) {
		ops = append(ops, sendOp{due: due, sess: i % smallPolicySessions})
	}
	for _, due := range poissonSchedule(sched, int(math.Round(smallPolicyEventRate*window.Seconds())), window) {
		ops = append(ops, sendOp{due: due, sess: -1})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })

	var srv *proc
	err = b.setupRounds(setupRounds, func() error {
		var err error
		if srv, err = b.ps.start("server", "vmr2l-server", "-ckpt", ckpt); err != nil {
			return err
		}
		for _, req := range reqs {
			if err := b.createSession(srv.url, req); err != nil {
				return err
			}
		}
		return nil
	}, func() { b.ps.stop(srv) })
	if err != nil {
		return err
	}
	before, err := b.promMetrics(srv.url)
	if err != nil {
		return err
	}

	// Two goroutines, one connection each: the sender keeps the schedule,
	// the poller follows every accepted job at a fixed interval. The
	// channel holds every send, so the sender never waits on the poller.
	stopObserve := b.observe([]*proc{srv})
	b.t0 = time.Now()
	inflight := make(chan *jobRec, len(ops))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.pollAll(srv.url, inflight)
	}()
	var sendErr error
	for _, op := range ops {
		if d := op.due - b.now(); d > 0 {
			time.Sleep(d)
		}
		if op.sess < 0 {
			ev := eventsReq{Events: churnEvent(feed, rng, names)}
			if _, err := b.postEvents(srv.url, "sp-feed", ev, op.due); err != nil {
				sendErr = err
				break
			}
			if err := feed.apply(ev, b.tr); err != nil {
				sendErr = err
				break
			}
			continue
		}
		rec := &jobRec{sess: op.sess, due: op.due}
		if err := b.submit(srv.url, ids[op.sess], planReq{MNL: smallPolicyMNL, Solver: "vmr2l"}, rec); err != nil {
			continue // counted; a shed job is part of the measurement
		}
		inflight <- rec
	}
	close(inflight)
	wg.Wait()
	if err := stopObserve(); err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}

	after, err := b.promMetrics(srv.url)
	if err != nil {
		return err
	}
	if waves := after["vmr2l_serve_waves_total"] - before["vmr2l_serve_waves_total"]; waves > 0 {
		b.layer["serve.rows_per_wave"] = (after["vmr2l_serve_rows_total"] - before["vmr2l_serve_rows_total"]) / waves
	}
	b.checkMirrors(srv.url, ids[smallPolicySessions:], []*mirror{feed})
	b.layer["service.shed_total"] = float64(b.checkAdmission([]string{srv.url}))
	if b.tr != nil {
		b.probeSnapshots(repeat(srv.url, len(ids)), ids)
	}
	b.ps.stop(srv)

	var done []*jobRec
	var snaps []*cluster.Cluster
	for _, j := range b.jobs {
		if j.state == "succeeded" && !j.timedOut {
			done = append(done, j)
			snaps = append(snaps, states[j.sess])
		}
	}
	if err := b.replayAll(done, snaps, engine{model: model}, smallPolicyMNL); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	b.layer["policy.forward_mflop"] = forwardMFLOP(model.Cfg, states[0])
	if err := b.schedulerWait(model, states[:smallPolicySessions]); err != nil {
		return err
	}
	return b.decodeLayer(mappings)
}

// pollAll follows accepted jobs until the sender closes the channel and
// every job has finished. Each job is polled every smallPolicyPollInterval.
func (b *bench) pollAll(base string, in <-chan *jobRec) {
	type tracked struct {
		rec  *jobRec
		next time.Duration
	}
	var live []tracked
	open := true
	for open || len(live) > 0 {
		// Wait for the earliest poll or a new job, whichever comes first.
		wake := time.Hour
		for _, t := range live {
			wake = min(wake, t.next-b.now())
		}
		if wake > 0 {
			timer := time.NewTimer(wake)
			select {
			case rec, ok := <-in:
				if !ok {
					open, in = false, nil
				} else {
					live = append(live, tracked{rec: rec, next: rec.accepted + smallPolicyPollInterval})
				}
			case <-timer.C:
			}
			timer.Stop()
			continue
		}
		kept := live[:0]
		for _, t := range live {
			if t.next <= b.now() {
				if b.poll(base, t.rec) {
					continue
				}
				t.next = b.now() + smallPolicyPollInterval
			}
			kept = append(kept, t)
		}
		live = kept
	}
}

// schedulerWait measures serve.Scheduler.Infer against Model.Infer with
// schedulerConcurrency greedy rollouts in flight, so the scheduler forms
// multi-row waves; the timed phase, about one job in flight, rarely does.
func (b *bench) schedulerWait(model *policy.Model, states []*cluster.Cluster) error {
	conc := min(schedulerConcurrency, len(states))
	sch := serve.NewScheduler(model, serve.Options{})
	defer sch.Close()
	var mu sync.Mutex
	var waits []float64
	var wg sync.WaitGroup
	errs := make([]error, conc)
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := g; rep < len(states); rep += conc {
				env := sim.New(states[rep%len(states)], sim.Config{MNL: smallPolicyMNL, Obj: sim.FR16()})
				rng := rand.New(rand.NewSource(0))
				for !env.Done() {
					start := time.Now()
					vm, pm, err := sch.Infer(context.Background(), env, rng, policy.SampleOpts{Greedy: true})
					took := time.Since(start)
					if err != nil {
						errs[g] = err
						return
					}
					mu.Lock()
					waits = append(waits, ms(took))
					mu.Unlock()
					if _, _, err := env.Step(vm, pm); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	infer := percentile(selfMS(selfTimes(b.tr.all()), "policy.infer"), 50)
	b.layer["serve.wait_ms_p50"] = percentile(waits, 50) - infer
	b.layer["serve.probe_rows_per_wave"] = sch.Stats().MeanWave
	return nil
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}
