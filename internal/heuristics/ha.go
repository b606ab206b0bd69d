// Package heuristics implements the two heuristic baselines of the paper:
// the production filtering-based heuristic (HA, section 2.1) and the
// generalized vector-bin-packing rescheduler (α-VBPP, section 5.1).
package heuristics

import (
	"context"
	"fmt"

	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// HA is the filtering-and-scoring heuristic used in industry data centers
// (paper section 2.1). Each iteration:
//
//	filter: rank VMs by the FR drop of removing them from their source PM,
//	score:  place the best candidate on the PM with the largest FR drop.
//
// It stops early once no migration lowers the objective — the behaviour the
// paper observes at MNL ≈ 25 on the Medium dataset.
type HA struct{}

// Meta implements solver.Solver.
func (HA) Meta() solver.Meta {
	return solver.Meta{
		Name:          "HA",
		Description:   "production filtering-and-scoring heuristic (paper section 2.1)",
		Anytime:       true,
		Deterministic: true,
	}
}

// Solve executes the heuristic until the episode ends, no improving
// migration exists, or ctx expires (the migrations taken so far form the
// anytime plan). Both stages read the planner's tables, which each step
// patches for the two PMs it touched, so proving that no move is left costs
// one walk of the candidates that could still improve rather than a
// VMs × PMs scan.
func (HA) Solve(ctx context.Context, env *sim.Env) error {
	pl := newPlanner(env)
	for !env.Done() {
		if ctx.Err() != nil {
			return nil // budget spent: best-so-far plan is already in env
		}
		a, ok := pl.firstImproving()
		if !ok {
			return nil // local optimum: no migration lowers the objective
		}
		src := env.Cluster().VMs[a.VM].PM
		if _, _, err := env.Step(a.VM, a.PM); err != nil {
			return fmt.Errorf("heuristics: HA step: %w", err)
		}
		pl.touch(src, a.PM)
	}
	return nil
}
