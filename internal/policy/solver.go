package policy

import (
	"context"
	"fmt"
	"math/rand"

	"vmr2l/internal/exact"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// Agent wraps a trained model as a solver.Solver that rolls the policy out
// on an environment. With Opts.Greedy it is the deterministic deployment
// mode; with sampling it is one risk-seeking trajectory.
type Agent struct {
	Model *Model
	Opts  SampleOpts
	Seed  int64
	// Label overrides the reported name (e.g. "Decima").
	Label string
	// EarlyStop ends the rollout when the chosen action has a negative
	// immediate gain. The paper's agent always takes MNL steps (negative
	// rewards can pay off later, section 5.8); this is a deployment
	// convenience for lightly-trained models, off by default.
	EarlyStop bool
}

// Meta implements solver.Solver.
func (a *Agent) Meta() solver.Meta {
	name := "VMR2L"
	if a.Label != "" {
		name = a.Label
	}
	return solver.Meta{
		Name:          name,
		Description:   "learned two-stage policy rollout (sparse tree-local attention, greedy or sampled)",
		Anytime:       true,
		Deterministic: a.Opts.Greedy,
	}
}

// Solve implements solver.Solver: one policy rollout, stopping at episode
// end, when no migratable VM remains, or when ctx expires. Each step is an
// allocation-free wave of one (Model.Infer) on a pooled scratch context.
func (a *Agent) Solve(ctx context.Context, env *sim.Env) error {
	rng := rand.New(rand.NewSource(a.Seed))
	bc := AcquireBatchCtx()
	defer bc.Release()
	for !env.Done() {
		if ctx.Err() != nil {
			return nil // budget spent: best-so-far plan is already in env
		}
		r := a.Model.serveRow(bc, WaveReq{Kind: WaveInfer, Env: env, Rng: rng, Opts: a.Opts})
		if r.Err != nil {
			return nil // no migratable VM left: episode effectively over
		}
		vm, pm := r.VM, r.PM
		if a.Model.Cfg.Action == Penalty {
			if _, _, err := env.PenaltyStep(vm, pm, -5); err != nil {
				return fmt.Errorf("policy: penalty step: %w", err)
			}
			continue
		}
		if a.EarlyStop {
			if g, ok := sim.MoveGain(env.Cluster(), env.Objective(), vm, pm); ok && g < 0 {
				return nil
			}
		}
		if _, _, err := env.Step(vm, pm); err != nil {
			return fmt.Errorf("policy: step: %w", err)
		}
	}
	return nil
}

// SolveBatch rolls every environment in lock-step with one batched forward
// per wave (Model.RolloutBatch) — the scale-out hook: a sharded solve hands
// all shard environments to one call and amortizes a single stacked GEMM
// chain across them. Per environment the rollout is bit-identical to Solve
// with seed Seed+1000003·i. Environments already done are left untouched;
// ctx expiry keeps every best-so-far plan.
func (a *Agent) SolveBatch(ctx context.Context, envs []*sim.Env) error {
	bc := AcquireBatchCtx()
	defer bc.Release()
	rngs := make([]*rand.Rand, len(envs))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(a.Seed + 1_000_003*int64(i)))
	}
	return a.Model.RolloutBatch(ctx, bc, envs, rngs, []SampleOpts{a.Opts}, a.EarlyStop)
}

// NeuPlan is the hybrid baseline (Zhu et al., SIGCOMM'21; paper section
// 5.1): the RL agent emits the first moves to prune the search space, then
// an exact solver finishes the remaining budget. Beta is the paper's relax
// factor: the number of trailing migrations left to the solver.
type NeuPlan struct {
	Model *Model
	Beta  int
	Inner exact.Solver
	Seed  int64
}

// Meta implements solver.Solver.
func (n *NeuPlan) Meta() solver.Meta {
	return solver.Meta{
		Name:          fmt.Sprintf("NeuPlan(b=%d)", n.Beta),
		Description:   "hybrid: RL policy prunes the prefix, exact search finishes the last β migrations",
		Anytime:       true,
		Deterministic: true,
	}
}

// Solve implements solver.Solver.
func (n *NeuPlan) Solve(ctx context.Context, env *sim.Env) error {
	rng := rand.New(rand.NewSource(n.Seed))
	rlSteps := env.MNL() - n.Beta
	bc := AcquireBatchCtx()
	defer bc.Release()
	for env.StepsTaken() < rlSteps && !env.Done() && ctx.Err() == nil {
		r := n.Model.serveRow(bc, WaveReq{Kind: WaveInfer, Env: env, Rng: rng, Opts: SampleOpts{Greedy: true}})
		if r.Err != nil {
			break
		}
		if _, _, err := env.Step(r.VM, r.PM); err != nil {
			return fmt.Errorf("policy: neuplan rl step: %w", err)
		}
	}
	if env.Done() || ctx.Err() != nil {
		return nil
	}
	plan := n.Inner.Search(ctx, env.Cluster(), env.Objective(), env.MNL()-env.StepsTaken())
	for _, a := range plan {
		if env.Done() {
			break
		}
		if _, _, err := env.Step(a.VM, a.PM); err != nil {
			return fmt.Errorf("policy: neuplan exact step: %w", err)
		}
	}
	return nil
}
