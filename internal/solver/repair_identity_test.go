package solver_test

import (
	"math/rand"
	"testing"

	"vmr2l/internal/scenario"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// TestRepairAccountsEveryPlannedMigration pins the no-silent-loss identities
// of plan repair on degraded fleets: every planned migration is counted
// exactly once (valid, repaired, dropped, or consumed by a forced
// evacuation), and every emitted migration is a kept, re-fitted or forced
// one. Plans are random legal walks on a snapshot while a randomized
// failure scenario drains and crashes PMs under the live cluster; one more
// drain then lands on a PM the plan moves a VM off (as a session's drain
// event can between solve and repair), so the evacuation pre-pass moves
// that VM before the walk reaches its planned entry.
func TestRepairAccountsEveryPlannedMigration(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	scenarios, consumed := 0, 0
	for scenarios < 24 {
		sc := scenario.RandomScenario(rng)
		if !sc.Dynamics.Failures.Enabled() {
			continue
		}
		scenarios++
		obj, err := sc.ParseObjective()
		if err != nil {
			t.Fatal(err)
		}
		srng := rand.New(rand.NewSource(sc.Seed))
		live, err := sc.Build(srng)
		if err != nil {
			t.Fatal(err)
		}
		dyn := sc.NewDynamics(live, srng)
		for cycle := 0; cycle < 6; cycle++ {
			plan := randomPlan(sim.New(live.Clone(), sim.Config{MNL: sc.MNL, Obj: obj}), srng)
			dyn.Advance(5)
			for _, m := range plan {
				if !m.Swap && m.VM < len(live.VMs) && live.VMs[m.VM].PM == m.FromPM && dyn.Drain(m.FromPM) {
					break
				}
			}

			rp := solver.RepairPlanObjective(live, plan, obj)
			st := rp.Stats
			if got := st.Valid + st.Repaired + st.Dropped + st.Consumed; got != len(plan) {
				t.Fatalf("%s cycle %d: valid+repaired+dropped+consumed = %d, plan has %d (%+v)",
					sc.Name, cycle, got, len(plan), st)
			}
			if got := st.Valid + st.Repaired + st.Evacuated; got != len(rp.Plan) {
				t.Fatalf("%s cycle %d: valid+repaired+evacuated = %d, repaired plan has %d (%+v)",
					sc.Name, cycle, got, len(rp.Plan), st)
			}
			consumed += st.Consumed
			if applied, skipped := sim.ApplyPlan(live, rp.Plan); skipped != 0 || applied != len(rp.Plan) {
				t.Fatalf("%s cycle %d: repaired plan applied %d/%d, skipped %d",
					sc.Name, cycle, applied, len(rp.Plan), skipped)
			}
		}
	}
	if consumed == 0 {
		t.Fatal("no planned migration was consumed by an evacuation: the identity went unexercised")
	}
}

// randomPlan walks env with uniformly random legal migrations until its
// migration limit and returns the recorded plan.
func randomPlan(env *sim.Env, rng *rand.Rand) []sim.Migration {
	for !env.Done() {
		vmMask := env.VMMask()
		stepped := false
		for try := 0; try < 64 && !stepped; try++ {
			vm := rng.Intn(len(vmMask))
			if !vmMask[vm] {
				continue
			}
			pmMask := env.PMMask(vm)
			pm := rng.Intn(len(pmMask))
			if pmMask[pm] {
				_, _, err := env.Step(vm, pm)
				stepped = err == nil
			}
		}
		if !stepped {
			break
		}
	}
	return append([]sim.Migration(nil), env.Plan()...)
}
