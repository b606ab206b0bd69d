package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/trace"
)

// churn-fleet: writes beside reads through vmr2l-coord in front of two
// replicas, on 8 sessions over workload-mid mappings (280 PMs). An event
// feed on a fixed schedule advances the clock a minute per request and adds
// explicit arrivals, exits and scripted draining/down/up transitions. Two
// closed-loop clients submit vbpp session jobs (~1 ms solves), wait for
// them and think; whichever client is free sends each events request when
// it falls due. The request path itself is what is timed.
const (
	churnSessions     = 8
	churnReplicas     = 2
	churnEventRate    = 20.0 // events requests/s over all sessions
	churnClients      = 2
	churnMNL          = 10
	churnPollInterval = time.Millisecond
	// churnFirstPoll is how long after a job is accepted its client first
	// polls it (sending due events meanwhile). It exceeds nearly every
	// job's latency, so a plan costs the servers one status poll however
	// slow the host is, and plan_cpu_norm_ms does not grow with wall time.
	churnFirstPoll = 10 * time.Millisecond
	// churnThink is each client's pause between plans. Without it the two
	// clients finish ~300 plans/s, the replicas' job stores (which keep
	// every finished job's cluster snapshot, up to 4096 jobs) grow past
	// 2 GB in one run, and GC, not the request path, sets the latency.
	churnThink = 25 * time.Millisecond
)

// churnFeed generates and sends the event feed: request i goes to session
// i mod 8, and every session follows the same script of health
// transitions, drawn from its own seeded stream so the requests do not
// depend on how the two clients interleave.
type churnFeed struct {
	b       *bench
	base    string
	ids     []string
	mirrors []*mirror
	rngs    []*rand.Rand
	names   []string
	due     []time.Duration

	mu   sync.Mutex
	next int
	// Per session: its lock (one request in flight per session, so the
	// mirror applies requests in the server's order), request count, and
	// the PMs currently drained and down.
	sess    []sync.Mutex
	n       []int
	drained []int
	crashed []int
}

// nextDue returns when the next unsent request falls due.
func (f *churnFeed) nextDue() (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < len(f.due) {
		return f.due[f.next], true
	}
	return 0, false
}

// claim returns the index of the next request that is due (or, with all
// set, the next one at all), or -1.
func (f *churnFeed) claim(all bool) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < len(f.due) && (all || f.due[f.next] <= f.b.now()) {
		f.next++
		return f.next - 1
	}
	return -1
}

// think pauses a client until `until`, sending every request that falls
// due meanwhile. A due request therefore waits for a client only while
// both clients are inside a job, and that wait counts in its latency.
func (f *churnFeed) think(until time.Duration) error {
	for {
		now := f.b.now()
		if now >= until {
			return nil
		}
		wake := until
		if due, ok := f.nextDue(); ok && due < wake {
			wake = due
		}
		time.Sleep(wake - now)
		if i := f.claim(false); i >= 0 {
			if err := f.send(i); err != nil {
				return err
			}
		}
	}
}

func (f *churnFeed) send(i int) error {
	s := i % len(f.ids)
	f.sess[s].Lock()
	defer f.sess[s].Unlock()
	m, rng := f.mirrors[s], f.rngs[s]
	req := eventsReq{AdvanceMinutes: 1, Events: churnEvent(m, rng, f.names)}
	k := f.n[s]
	f.n[s]++
	switch {
	case k%8 == 2:
		pm := m.upPM(rng)
		f.drained[s] = pm
		req.Events = append(req.Events, eventJSON{Health: "draining", PM: &pm})
	case k%8 == 4:
		pm := f.drained[s]
		req.Events = append(req.Events, eventJSON{Health: "up", PM: &pm})
	case k%8 == 6:
		pm := m.upPM(rng)
		f.crashed[s] = pm
		req.Events = append(req.Events, eventJSON{Health: "down", PM: &pm})
	case k%8 == 0 && k > 0:
		pm := f.crashed[s]
		req.Events = append(req.Events, eventJSON{Health: "up", PM: &pm})
	}
	if _, err := f.b.postEvents(f.base, f.ids[s], req, f.due[i]); err != nil {
		return err
	}
	return m.apply(req, f.b.tr)
}

func runChurnFleet(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	prof := trace.MustProfile("workload-mid")
	f := &churnFeed{
		b: b, names: flavors("workload-mid"),
		sess: make([]sync.Mutex, churnSessions), n: make([]int, churnSessions),
		drained: make([]int, churnSessions), crashed: make([]int, churnSessions),
	}
	var mappings, reqs [][]byte
	for i := 0; i < churnSessions; i++ {
		id := fmt.Sprintf("cf-%d", i)
		mapping, req, err := encodeMapping(prof.GenerateMapping(rng), id, b.seed+int64(i))
		if err != nil {
			return err
		}
		m, err := newMirror(mapping, b.seed+int64(i))
		if err != nil {
			return err
		}
		mappings, reqs = append(mappings, mapping), append(reqs, req)
		f.ids, f.mirrors = append(f.ids, id), append(f.mirrors, m)
		f.rngs = append(f.rngs, rand.New(rand.NewSource(b.seed*1_000_003+int64(i))))
	}
	f.due = poissonSchedule(rand.New(rand.NewSource(scheduleSeed)), int(math.Round(churnEventRate*b.window.Seconds())), b.window)

	var fleet []*proc // replicas then coordinator
	teardown := func() {
		for i := len(fleet) - 1; i >= 0; i-- {
			b.ps.stop(fleet[i])
		}
		fleet = nil
	}
	err := b.setupRounds(setupRounds, func() error {
		args := []string{}
		for r := 0; r < churnReplicas; r++ {
			p, err := b.ps.start(fmt.Sprintf("replica-%d", r), "vmr2l-server")
			if err != nil {
				return err
			}
			fleet = append(fleet, p)
			args = append(args, "-replica", fmt.Sprintf("r%d=%s", r, p.url))
		}
		co, err := b.ps.start("coord", "vmr2l-coord", args...)
		if err != nil {
			return err
		}
		fleet = append(fleet, co)
		for _, req := range reqs {
			if err := b.createSession(co.url, req); err != nil {
				return err
			}
		}
		return nil
	}, teardown)
	if err != nil {
		return err
	}
	defer teardown()
	co := fleet[len(fleet)-1]
	replicas := []string{fleet[0].url, fleet[1].url}
	f.base = co.url

	stopObserve := b.observe(fleet)
	b.t0 = time.Now()
	var wg sync.WaitGroup
	errs := make([]error, churnClients)
	for c := 0; c < churnClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if i := f.claim(b.now() >= b.window); i >= 0 {
					if err := f.send(i); err != nil {
						errs[c] = err
						return
					}
					continue
				}
				if b.now() >= b.window {
					return
				}
				rec := &jobRec{sess: (c + churnClients*k) % churnSessions}
				if b.submit(co.url, f.ids[rec.sess], planReq{MNL: churnMNL, Solver: "vbpp"}, rec) == nil {
					if err := f.think(rec.accepted + churnFirstPoll); err != nil {
						errs[c] = err
						return
					}
					b.wait(co.url, rec, churnPollInterval)
				}
				if err := f.think(b.now() + churnThink); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := stopObserve(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var fleetSt fleetJSON
	code, _, _, err := call(b.hc, http.MethodGet, co.url+"/v2/fleet", nil, &fleetSt)
	b.count("check", code, err == nil)
	if err != nil {
		return err
	}
	b.layer["coord.snapshots_total"] = float64(fleetSt.Stats.Snapshots)
	b.layer["service.shed_total"] = float64(b.checkAdmission(replicas))
	b.checkMirrors(co.url, f.ids, f.mirrors)
	unreported := 0
	var steps []float64
	for _, j := range b.jobs {
		if j.state == "succeeded" {
			unreported += checkAccounting(b, j)
			steps = append(steps, float64(j.res.Steps))
		}
	}
	b.layer["heuristics.steps_mean"] = mean(steps)
	b.layer["solver.unreported_total"] = float64(unreported)

	// With the feed stopped the sessions are static: one more job per
	// session must equal its replay on the mirror.
	var checked []*jobRec
	var snaps []*cluster.Cluster
	for i, id := range f.ids {
		rec := &jobRec{sess: i, phase: "check"}
		if err := b.submit(co.url, id, planReq{MNL: churnMNL, Solver: "vbpp"}, rec); err != nil {
			return err
		}
		b.wait(co.url, rec, churnPollInterval)
		if rec.state != "succeeded" {
			return fmt.Errorf("check job on %s: %s", id, rec.state)
		}
		checked, snaps = append(checked, rec), append(snaps, f.mirrors[i].c)
	}
	if b.tr != nil {
		owners, err := b.owners(replicas, f.ids)
		if err != nil {
			return err
		}
		b.probeProxy(co.url, owners, f.ids)
		b.probeSnapshots(owners, f.ids)
	}
	teardown()
	if err := b.replayAll(checked, snaps, engine{sv: heuristics.VBPP{}}, churnMNL); err != nil {
		return err
	}
	if b.tr != nil {
		return b.decodeLayer(mappings)
	}
	return nil
}

// checkAccounting checks a served job's repair report against its plan.
// Every migration returned is valid, repaired or a forced evacuation. Every
// migration the solver planned is valid, repaired or dropped — except that
// the forced-evacuation pre-pass may consume a planned move of a VM it
// already evacuated, and the report counts such a move nowhere. Those are
// bounded by the evacuations, and returned as the job's unreported count.
func checkAccounting(b *bench, j *jobRec) int {
	r := j.res.Repair
	if r == nil {
		b.fail("job %s: session job without a repair report", j.id)
		return 0
	}
	if n := len(j.res.Plan); n != r.Valid+r.Repaired+r.Evacuated {
		b.fail("job %s: %d migrations returned, valid %d + repaired %d + evacuated %d",
			j.id, n, r.Valid, r.Repaired, r.Evacuated)
	}
	unreported := j.res.Steps - (r.Valid + r.Repaired + r.Dropped)
	if unreported < 0 || unreported > r.Evacuated {
		b.fail("job %s: valid %d + repaired %d + dropped %d against %d planned (evacuated %d)",
			j.id, r.Valid, r.Repaired, r.Dropped, j.res.Steps, r.Evacuated)
	}
	return unreported
}

// owners finds the replica holding each session.
func (b *bench) owners(replicas, ids []string) ([]string, error) {
	out := make([]string, len(ids))
	for i, id := range ids {
		for _, u := range replicas {
			code, _, _, _ := call(b.hc, http.MethodGet, u+"/v2/clusters/"+id, nil, nil)
			b.count("probe", code, code == http.StatusOK || code == http.StatusNotFound)
			if code == http.StatusOK {
				out[i] = u
			}
		}
		if out[i] == "" {
			return nil, fmt.Errorf("no replica holds session %s", id)
		}
	}
	return out, nil
}

// probeProxy times the same status read through the coordinator and
// directly on the owning replica, alternating, and reports the difference
// of the medians.
func (b *bench) probeProxy(coord string, owners, ids []string) {
	var via, direct []float64
	for rep := 0; rep < 10; rep++ {
		for i, id := range ids {
			for _, target := range []string{coord, owners[i]} {
				s := b.tr.begin("http.status", sp{})
				code, _, d, err := call(b.hc, http.MethodGet, target+"/v2/clusters/"+id, nil, nil)
				s.end()
				b.count("probe", code, err == nil)
				if target == coord {
					via = append(via, ms(d))
				} else {
					direct = append(direct, ms(d))
				}
			}
		}
	}
	b.layer["coord.proxy_ms_p50"] = percentile(via, 50) - percentile(direct, 50)
}
