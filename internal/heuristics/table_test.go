package heuristics

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

// bruteHA is HA as a full scan: every step ranks all placed VMs by removal
// gain and scores every candidate against every PM. It is the reference the
// table-driven HA must reproduce migration for migration.
func bruteHA(env *sim.Env) error {
	obj := env.Objective()
	for !env.Done() {
		c := env.Cluster()
		cands := bruteCandidates(c, obj)
		moved := false
		for _, cd := range cands {
			bestPM, bestTotal := -1, 0.0
			for pm := range c.PMs {
				ig, ok := sim.InsertGain(c, obj, cd.vm, pm)
				if !ok {
					continue
				}
				if total := cd.gain + ig; bestPM == -1 || total > bestTotal {
					bestPM, bestTotal = pm, total
				}
			}
			if bestPM < 0 || bestTotal <= 1e-12 {
				continue
			}
			if _, _, err := env.Step(cd.vm, bestPM); err != nil {
				return err
			}
			moved = true
			break
		}
		if !moved {
			return nil
		}
	}
	return nil
}

// bruteSwapHA is SwapHA as a full scan: the best single move from
// sim.TopActions and swap candidates from a full removal-gain sort.
func bruteSwapHA(env *sim.Env, topK int) error {
	obj := env.Objective()
	for !env.Done() {
		c := env.Cluster()
		var bestMove sim.Action
		haveMove := false
		if acts := sim.TopActions(c, obj, 1); len(acts) > 0 && acts[0].Gain > 1e-12 {
			bestMove, haveMove = acts[0], true
		}
		cands := bruteCandidates(c, obj)
		if len(cands) > topK {
			cands = cands[:topK]
		}
		bestA, bestB, bestSwap := -1, -1, 0.0
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if g, ok := env.SwapGain(cands[i].vm, cands[j].vm); ok && g > bestSwap {
					bestA, bestB, bestSwap = cands[i].vm, cands[j].vm, g
				}
			}
		}
		switch {
		case bestA >= 0 && bestSwap > 1e-12 && (!haveMove || bestSwap > 2*bestMove.Gain):
			if _, _, err := env.SwapStep(bestA, bestB); err != nil {
				return err
			}
		case haveMove:
			if _, _, err := env.Step(bestMove.VM, bestMove.PM); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
}

type bruteCand struct {
	vm   int
	gain float64
}

// bruteCandidates returns every placed VM by removal gain desc, VM asc.
func bruteCandidates(c *cluster.Cluster, obj sim.Objective) []bruteCand {
	var cands []bruteCand
	for vm := range c.VMs {
		if g, ok := sim.RemovalGain(c, obj, vm); ok {
			cands = append(cands, bruteCand{vm, g})
		}
	}
	slices.SortFunc(cands, func(a, b bruteCand) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		default:
			return a.vm - b.vm
		}
	})
	return cands
}

// liveMapping builds a profile mapping as a live fleet sees it: when churned,
// 3% of the VMs have exited and a few PMs are Draining or Down; aa > 0
// attaches service anti-affinity at that level.
func liveMapping(profile string, seed int64, churned bool, aa int) *cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	c := trace.MustProfile(profile).GenerateMapping(rng)
	if churned {
		for _, vm := range rng.Perm(len(c.VMs))[:len(c.VMs)*3/100] {
			if c.VMs[vm].Placed() {
				_ = c.Remove(vm)
			}
		}
		n := max(1, len(c.PMs)/50)
		for i, pm := range rng.Perm(len(c.PMs))[:2*n] {
			h := cluster.Draining
			if i%2 == 1 {
				h = cluster.Down
			}
			_ = c.SetHealth(pm, h)
		}
	}
	if aa > 0 {
		trace.AttachAffinity(c, aa, rng)
	}
	return c
}

// TestTablePlansMatchBruteForce pins the table-driven HA and SwapHA to the
// full scans they replace: identical migration lists across profiles, fresh
// and churned (exits plus Draining/Down PMs) mappings, anti-affinity and
// objectives. The λ = 0.3 objectives have non-dyadic weights, so distinct
// insert gains can round to one total — the tie bestDest must still break
// to the lowest PM. SwapHA's reference re-enumerates every action per step, so on
// profiles above 200 PMs it checks one objective per mapping, rotating
// through them, and on the 1176-PM profile only the churned FR16 mapping
// with anti-affinity.
func TestTablePlansMatchBruteForce(t *testing.T) {
	profiles := []string{"tiny", "medium-small", "medium", "large", "multi-resource", "workload-mid"}
	if testing.Short() {
		profiles = []string{"tiny", "medium-small", "multi-resource"}
	}
	objectives := []struct {
		name string
		obj  sim.Objective
	}{
		{"fr16", sim.FR16()},
		{"mixed-mem", sim.MixedResource(0.5)},
		{"mixed-vm", sim.MixedVMType(0.5)},
		{"mixed-mem-0.3", sim.MixedResource(0.3)},
		{"mixed-vm-0.3", sim.MixedVMType(0.3)},
	}
	const mnl = 50
	moved := 0
	for pi, profile := range profiles {
		for mi, churned := range []bool{false, true} {
			for _, aa := range []int{0, 3} {
				c := liveMapping(profile, int64(11+pi), churned, aa)
				mi := 2*mi + aa/3
				for oi, o := range objectives {
					name := fmt.Sprintf("%s/churned=%v/aa=%d/%s", profile, churned, aa, o.name)
					cfg := sim.Config{MNL: mnl, Obj: o.obj}
					got := sim.New(c, cfg)
					if err := (HA{}).Solve(context.Background(), got); err != nil {
						t.Fatalf("%s: HA: %v", name, err)
					}
					want := sim.New(c, cfg)
					if err := bruteHA(want); err != nil {
						t.Fatalf("%s: brute HA: %v", name, err)
					}
					if !slices.Equal(got.Plan(), want.Plan()) {
						t.Fatalf("%s: HA plan differs from the full scan\n got %v\nwant %v", name, got.Plan(), want.Plan())
					}
					moved += len(got.Plan())
					switch {
					case profile == "large" && (mi != 3 || oi != 0):
						continue
					case len(c.PMs) > 200 && oi != mi%len(objectives):
						continue
					}
					got = sim.New(c, cfg)
					if err := (SwapHA{}).Solve(context.Background(), got); err != nil {
						t.Fatalf("%s: SwapHA: %v", name, err)
					}
					want = sim.New(c, cfg)
					if err := bruteSwapHA(want, SwapHA{}.topK()); err != nil {
						t.Fatalf("%s: brute SwapHA: %v", name, err)
					}
					if !slices.Equal(got.Plan(), want.Plan()) {
						t.Fatalf("%s: SwapHA plan differs from the full scan\n got %v\nwant %v", name, got.Plan(), want.Plan())
					}
					moved += len(got.Plan())
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no case migrated anything; the comparison is vacuous")
	}
}

// TestInsertGainMatchesTable: sim.InsertGain is CanHost plus the shape-level
// gain the insertion tables hold, so for every (vm, pm) CanHost accepts the
// table has an entry with exactly that value, and a table entry exists only
// on Up PMs the shape fits.
func TestInsertGainMatchesTable(t *testing.T) {
	objectives := []sim.Objective{sim.FR16(), sim.MixedResource(0.5), sim.MixedVMType(0.5)}
	profiles := []string{"tiny", "medium-small", "multi-resource-small", "workload-mid-small"}
	for seed := int64(0); seed < 8; seed++ {
		profile := profiles[int(seed)%len(profiles)]
		c := liveMapping(profile, seed, seed%2 == 0, int(seed%4))
		pl := newPlanner(sim.New(c, sim.Config{MNL: 10, Obj: objectives[seed%3]}))
		c = pl.env.Cluster()
		for vm := range c.VMs {
			if !c.VMs[vm].Placed() {
				continue
			}
			table := pl.tables[pl.shapeOf[vm]]
			for pm := range c.PMs {
				ig, ok := sim.InsertGain(c, pl.obj, vm, pm)
				if ok && (!table.in[pm] || table.gain[pm] != ig) {
					t.Fatalf("seed %d: InsertGain(%d,%d) = %v, table has %v (member %v)", seed, vm, pm, ig, table.gain[pm], table.in[pm])
				}
				if table.in[pm] && (c.PMs[pm].Health != cluster.Up || !c.PMs[pm].Fits(c.VMs[vm].Shape())) {
					t.Fatalf("seed %d: table lists pm %d for vm %d, which it cannot host", seed, pm, vm)
				}
			}
		}
	}
}
