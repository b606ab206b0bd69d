package main

import (
	"math/rand"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/trace"
)

// large-ha: one controller that waits for each plan, on one session over a
// paper-Large mapping (1176 PMs, ~9k VMs). Each cycle posts a few seeded
// explicit events, then an HA job (MNL 50, default budget), and waits.
const (
	largeHAMNL          = 50
	largeHAEventPosts   = 4 // events requests per cycle, one exit and one arrival each
	largeHAPollInterval = 10 * time.Millisecond
)

func runLargeHA(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	c := trace.MustProfile("large").GenerateMapping(rng)
	mapping, req, err := encodeMapping(c, "large", b.seed)
	if err != nil {
		return err
	}
	names := flavors("large")

	var srv *proc
	err = b.setupRounds(setupRounds, func() error {
		var err error
		if srv, err = b.ps.start("server", "vmr2l-server"); err != nil {
			return err
		}
		return b.createSession(srv.url, req)
	}, func() { b.ps.stop(srv) })
	if err != nil {
		return err
	}
	m, err := newMirror(mapping, b.seed)
	if err != nil {
		return err
	}

	// The states jobs were solved on are rebuilt from the event log after
	// the timed phase, so the generator clones nothing while it measures.
	var log []eventsReq
	var cuts []int // per succeeded job: events applied before it
	stopObserve := b.observe([]*proc{srv})
	b.t0 = time.Now()
	for b.now() < b.window {
		for k := 0; k < largeHAEventPosts; k++ {
			ev := eventsReq{Events: churnEvent(m, rng, names)}
			if _, err := b.postEvents(srv.url, "large", ev, b.now()); err != nil {
				return err
			}
			if err := m.apply(ev, b.tr); err != nil {
				return err
			}
			log = append(log, ev)
		}
		rec := &jobRec{}
		if err := b.submit(srv.url, "large", planReq{MNL: largeHAMNL, Solver: "ha"}, rec); err != nil {
			return err
		}
		b.wait(srv.url, rec, largeHAPollInterval)
		if rec.state == "succeeded" {
			cuts = append(cuts, len(log))
		}
	}
	if err := stopObserve(); err != nil {
		return err
	}

	b.checkMirrors(srv.url, []string{"large"}, []*mirror{m})
	b.layer["service.shed_total"] = float64(b.checkAdmission([]string{srv.url}))
	if b.tr != nil {
		b.probeSnapshots([]string{srv.url}, []string{"large"})
	}
	b.ps.stop(srv)

	// A plan cut by the budget is an anytime plan that cannot be replayed;
	// it already counts against budget_met_frac.
	rebuilt, err := newMirror(mapping, b.seed)
	if err != nil {
		return err
	}
	var done []*jobRec
	var snaps []*cluster.Cluster
	var steps []float64
	applied, k := 0, 0
	for _, j := range b.jobs {
		if j.state != "succeeded" {
			continue
		}
		for ; applied < cuts[k]; applied++ {
			if err := rebuilt.apply(log[applied], nil); err != nil {
				return err
			}
		}
		k++
		if !j.timedOut {
			done = append(done, j)
			snaps = append(snaps, rebuilt.c.Clone())
			steps = append(steps, float64(j.res.Steps))
		}
	}
	b.layer["heuristics.steps_mean"] = mean(steps)
	if err := b.replayAll(done, snaps, engine{sv: heuristics.HA{}}, largeHAMNL); err != nil {
		return err
	}
	if b.tr != nil {
		return b.decodeLayer([][]byte{mapping})
	}
	return nil
}
