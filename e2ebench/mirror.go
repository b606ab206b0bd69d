package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/scenario"
	"vmr2l/internal/sched"
	"vmr2l/internal/trace"
)

// mirror is the benchmark's own copy of one session: the same mapping, the
// same dynamics engine a mapping session gets (diurnal churn at rate 2
// over the standard flavors, slot reuse on) and the same seed, so applying
// the same event requests in the same order leaves it equal to the
// server's session. Event generation reads VM and PM ids from it.
type mirror struct {
	c   *cluster.Cluster
	dyn *sched.Dynamics
}

func newMirror(mapping []byte, seed int64) (*mirror, error) {
	c, err := trace.ReadMapping(bytes.NewReader(mapping))
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	dyn := scenario.DynamicsSpec{Shape: scenario.Diurnal, Rate: 2}.
		NewDynamics(c, rand.New(sched.NewCountedSource(seed)), cluster.StandardTypes)
	dyn.SetReuseSlots(true)
	return &mirror{c: c, dyn: dyn}, nil
}

// apply performs one events request the way the documented API defines
// it: the clock advances first, then the explicit events apply in order.
// Each engine call is one sched.apply span.
func (m *mirror) apply(req eventsReq, tr *tracer) error {
	if req.AdvanceMinutes > 0 {
		s := tr.begin("sched.apply", sp{})
		m.dyn.Advance(req.AdvanceMinutes)
		s.end()
	}
	for _, ev := range req.Events {
		s := tr.begin("sched.apply", sp{})
		switch {
		case ev.Health == "down":
			m.dyn.Crash(*ev.PM)
		case ev.Health == "draining":
			m.dyn.Drain(*ev.PM)
		case ev.Health == "up":
			m.dyn.Recover(*ev.PM)
		case ev.Arrive:
			t, ok := cluster.TypeByName(ev.Type)
			if !ok {
				return fmt.Errorf("mirror: unknown flavor %q", ev.Type)
			}
			m.dyn.Arrive(t)
		case ev.VM != nil:
			m.dyn.Exit(*ev.VM)
		default:
			m.dyn.ExitRandom()
		}
		s.end()
	}
	return nil
}

// placedVM draws a placed VM id.
func (m *mirror) placedVM(rng *rand.Rand) int {
	for {
		if id := rng.Intn(len(m.c.VMs)); m.c.VMs[id].Placed() {
			return id
		}
	}
}

// upPM draws an Up PM id.
func (m *mirror) upPM(rng *rand.Rand) int {
	for {
		if pm := rng.Intn(len(m.c.PMs)); m.c.PMs[pm].Health == cluster.Up {
			return pm
		}
	}
}

// diff compares the mirror with the server's view of the session and
// describes the first mismatch ("" when equal).
func (m *mirror) diff(st sessionJSON) string {
	ds := m.dyn.Stats()
	h := m.c.HealthCounts()
	pairs := []struct {
		what      string
		got, want any
	}{
		{"vms", st.VMs, m.c.CountPlaced()},
		{"fr", st.FR, m.c.FragRate(cluster.DefaultFragCores)},
		{"minute", st.Minute, m.dyn.Minute()},
		{"pms up", st.Health.Up, h[cluster.Up]},
		{"pms draining", st.Health.Draining, h[cluster.Draining]},
		{"pms down", st.Health.Down, h[cluster.Down]},
		{"pending evacuations", st.PendingEvacuations, len(m.dyn.PendingEvacuations(nil))},
		{"arrivals", st.Stats.Arrivals, ds.Arrivals},
		{"rejected", st.Stats.Rejected, ds.Rejected},
		{"exits", st.Stats.Exits, ds.Exits},
		{"evacuated", st.Stats.Evacuated, ds.Evacuated},
		{"evac_lost", st.Stats.EvacLost, ds.EvacLost},
	}
	for _, p := range pairs {
		if p.got != p.want {
			return fmt.Sprintf("%s: server %v, mirror %v", p.what, p.got, p.want)
		}
	}
	return ""
}
