package heuristics

import (
	"context"
	"math/rand"
	"testing"

	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

// TestFleetScaleDeadline holds HA and SwapHA to the paper's 5 s budget at
// fleet scale: on the hyperscale profile (10k PMs, ~90k VMs) with 3% of the
// VMs exited, each must reach its own fixpoint at MNL 500 before the
// deadline — not be cut off by it — and return a plan that validates
// against the mapping it was computed on.
func TestFleetScaleDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet scale: builds a 10k-PM mapping and solves it twice")
	}
	rng := rand.New(rand.NewSource(1))
	c := trace.MustProfile("hyperscale").GenerateMapping(rng)
	for _, vm := range rng.Perm(len(c.VMs))[:len(c.VMs)*3/100] {
		if c.VMs[vm].Placed() {
			_ = c.Remove(vm)
		}
	}
	for _, s := range []solver.Solver{HA{}, SwapHA{}} {
		ctx, cancel := context.WithTimeout(context.Background(), solver.FiveSecondLimit)
		res, err := solver.Evaluate(ctx, s, c, sim.DefaultConfig(500))
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", res.Solver, err)
		}
		t.Logf("%s: %d steps in %v, FR %.4f -> %.4f", res.Solver, res.Steps, res.Elapsed, res.InitialFR, res.FinalFR)
		if res.TimedOut || res.Elapsed >= solver.FiveSecondLimit {
			t.Errorf("%s: ran %v against a %v budget (timed out: %v)", res.Solver, res.Elapsed, solver.FiveSecondLimit, res.TimedOut)
		}
		if res.Steps == 0 {
			t.Errorf("%s: no migration on a churned fleet", res.Solver)
		}
		for i, chk := range solver.ValidatePlan(c, res.Plan) {
			if chk.Status != solver.MigrationValid {
				t.Fatalf("%s: migration %d %+v is %v", res.Solver, i, chk.Migration, chk.Status)
			}
		}
	}
}
