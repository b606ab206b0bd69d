package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// budget is the server's default solve budget (the paper's 5 s).
const budget = solver.FiveSecondLimit

// engine is what the server runs for a job: a registered heuristic, or
// the greedy policy agent the server builds from its checkpoint.
type engine struct {
	sv    solver.Solver // nil for the policy
	model *policy.Model
}

func (e engine) solver() solver.Solver {
	if e.sv != nil {
		return e.sv
	}
	return &policy.Agent{Model: e.model, Opts: policy.SampleOpts{Greedy: true}}
}

// replay runs one session job's pipeline in process on snap, the state the
// server solved and repaired against: clone, solve, repair, encode. It
// returns the response the server should have sent.
func replay(snap *cluster.Cluster, eng engine, mnl int) (*planJSON, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	c := snap.Clone()
	res, err := solver.Evaluate(ctx, eng.solver(), c, sim.Config{MNL: mnl, Obj: sim.FR16()})
	if err != nil {
		return nil, err
	}
	rp := solver.RepairPlanObjective(snap, res.Plan, sim.FR16())
	return response(res, rp), nil
}

// replayTraced is replay with a span around every layer call; the policy
// rollout is unrolled step by step (extract, infer, mask, step) exactly as
// the agent runs it. The capped re-solve that splits HA's time into search
// and proof runs outside the replay span, so it is not charged to tracing.
// For a heuristic it also returns the proof time: the solve minus the same
// solve capped at the steps it found, i.e. the final scans that show no
// improving move is left.
func replayTraced(tr *tracer, snap *cluster.Cluster, eng engine, mnl int) (*planJSON, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	cfg := sim.Config{MNL: mnl, Obj: sim.FR16()}
	root := tr.begin("replay", sp{})
	s := tr.begin("cluster.clone", root)
	c := snap.Clone()
	s.end()
	var res solver.Result
	if eng.sv != nil {
		s = tr.begin("heuristics.solve", root)
		var err error
		res, err = solver.Evaluate(ctx, eng.sv, c, cfg)
		s.end()
		if err != nil {
			root.end()
			return nil, 0, err
		}
	} else {
		s = tr.begin("policy.rollout", root)
		var err error
		res, err = rollout(tr, s, eng.model, c, cfg)
		s.end()
		if err != nil {
			root.end()
			return nil, 0, err
		}
	}
	s = tr.begin("solver.repair", root)
	rp := solver.RepairPlanObjective(snap, res.Plan, cfg.Obj)
	s.end()
	s = tr.begin("service.encode", root)
	out := response(res, rp)
	_, err := json.Marshal(out)
	s.end()
	root.end()
	if err != nil || eng.sv == nil {
		return out, 0, err
	}
	proof := res.Elapsed
	if res.Steps > 0 {
		cfg.MNL = res.Steps
		capped, err := solver.Evaluate(ctx, eng.sv, c, cfg)
		if err != nil {
			return nil, 0, err
		}
		proof -= capped.Elapsed
	}
	return out, proof, nil
}

// rollout is policy.Agent.Solve (greedy, seed 0) with the per-step calls
// timed. The extract and mask spans repeat work Infer does internally, so
// they time those layers without changing the plan.
func rollout(tr *tracer, parent sp, m *policy.Model, c *cluster.Cluster, cfg sim.Config) (solver.Result, error) {
	env := sim.New(c, cfg)
	res := solver.Result{InitialFR: env.FragRate()}
	rng := rand.New(rand.NewSource(0))
	ic := policy.NewInferCtx()
	opts := policy.SampleOpts{Greedy: true}
	var (
		feat   sim.Features
		vmMask []bool
		pmMask []bool
	)
	start := time.Now()
	for !env.Done() {
		s := tr.begin("sim.extract", parent)
		sim.ExtractInto(&feat, env.Cluster())
		s.end()
		s = tr.begin("policy.infer", parent)
		vm, pm, err := m.Infer(ic, env, rng, opts)
		s.end()
		if err != nil {
			break // no migratable VM left
		}
		s = tr.begin("sim.mask", parent)
		vmMask = env.VMMaskInto(vmMask)
		pmMask = env.PMMaskInto(vm, pmMask)
		s.end()
		s = tr.begin("sim.step", parent)
		_, _, err = env.Step(vm, pm)
		s.end()
		if err != nil {
			return res, fmt.Errorf("rollout step: %w", err)
		}
	}
	res.Elapsed = time.Since(start)
	res.FinalFR = env.FragRate()
	res.Steps = env.StepsTaken()
	res.Plan = append([]sim.Migration(nil), env.Plan()...)
	return res, nil
}

// response builds the session-job result the service reports.
func response(res solver.Result, rp solver.RepairedPlan) *planJSON {
	out := &planJSON{
		InitialFR: res.InitialFR, FinalFR: res.FinalFR, Steps: res.Steps,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
		Repair: &repairJSON{
			Valid: rp.Stats.Valid, Repaired: rp.Stats.Repaired, Dropped: rp.Stats.Dropped,
			Evacuated: rp.Stats.Evacuated, EvacFailed: rp.Stats.EvacFailed,
			LiveInitialFR: rp.InitialFR, LiveFinalFR: rp.FinalFR,
		},
	}
	for _, m := range rp.Plan {
		out.Plan = append(out.Plan, migrationJSON{VM: m.VM, FromPM: m.FromPM, ToPM: m.ToPM, Swap: m.Swap, Forced: m.Forced})
	}
	return out
}

// planDiff describes the first difference between a served plan and its
// replay ("" when they agree). Solver label and timing are not compared.
func planDiff(got, want *planJSON) string {
	switch {
	case got == nil || got.Repair == nil:
		return "served job has no session result"
	case got.Steps != want.Steps:
		return fmt.Sprintf("steps %d, replay %d", got.Steps, want.Steps)
	case got.InitialFR != want.InitialFR || got.FinalFR != want.FinalFR:
		return fmt.Sprintf("fr %v->%v, replay %v->%v", got.InitialFR, got.FinalFR, want.InitialFR, want.FinalFR)
	case !reflect.DeepEqual(*got.Repair, *want.Repair):
		return fmt.Sprintf("repair %+v, replay %+v", *got.Repair, *want.Repair)
	case len(got.Plan) != len(want.Plan):
		return fmt.Sprintf("%d migrations, replay %d", len(got.Plan), len(want.Plan))
	}
	for i := range got.Plan {
		if got.Plan[i] != want.Plan[i] {
			return fmt.Sprintf("migration %d is %+v, replay %+v", i, got.Plan[i], want.Plan[i])
		}
	}
	return ""
}

// forwardMFLOP counts the multiply-adds of one policy forward pass (two
// FLOPs each) for a model of width d, hidden width h and the given blocks
// on a cluster, from its shape alone: embeddings, per block the tree-local
// attention over each PM with its VMs, PM and VM self-attention, VM->PM
// cross attention and the two feed-forward layers, then the two actor
// heads. Softmax, layer norm and masking are not counted.
func forwardMFLOP(cfg policy.Config, c *cluster.Cluster) float64 {
	d, h := float64(cfg.DModel), float64(cfg.Hidden)
	p := float64(len(c.PMs))
	perPM := make([]float64, len(c.PMs))
	v := 0.0
	for i := range c.VMs {
		if c.VMs[i].Placed() {
			perPM[c.VMs[i].PM]++
			v++
		}
	}
	var treeSq float64
	for _, n := range perPM {
		treeSq += (n + 1) * (n + 1)
	}
	macs := p*(sim.PMFeatDim*h+h*d) + v*(sim.VMFeatDim*h+h*d)
	for b := 0; b < cfg.Blocks; b++ {
		macs += 4*(p+v)*d*d + 2*treeSq*d // tree-local attention
		macs += 4*p*d*d + 2*p*p*d        // PM self-attention
		macs += 4*v*d*d + 2*v*v*d        // VM self-attention
		macs += 2*(p+v)*d*d + 2*v*p*d    // cross attention: Q, O on VMs; K, V on PMs
		macs += 2 * (p + v) * d * h      // feed-forward
	}
	macs += v*d + p*((2*d+1)*h+h) // VM head, PM merge head
	return 2 * macs / 1e6
}
