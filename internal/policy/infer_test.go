package policy

import (
	"math"
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

func inferTestEnv(t *testing.T, seed int64) *sim.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(4, cluster.PMSmall)
	for i := 0; i < 14; i++ {
		vt := cluster.StandardTypes[rng.Intn(4)]
		id := c.AddVM(vt)
		pm := rng.Intn(len(c.PMs))
		numa := rng.Intn(cluster.NumasPerPM)
		if c.VMs[id].Numas == 2 {
			numa = 0
		}
		for try := 0; try < 4 && c.Place(id, pm, numa) != nil; try++ {
			pm = rng.Intn(len(c.PMs))
		}
	}
	return sim.New(c, sim.DefaultConfig(8))
}

// TestInferMatchesGraphForward asserts the arena fast path reproduces the
// autograd forward bit-for-bit (same float ops, no graph) for every
// extractor variant: embeddings, both actor heads, the critic, and the
// joint logits.
func TestInferMatchesGraphForward(t *testing.T) {
	env := inferTestEnv(t, 3)
	feat := sim.Extract(env.Cluster())
	for _, ex := range []ExtractorMode{SparseAttention, VanillaAttention, NoAttention} {
		cfg := Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2, Extractor: ex, Seed: 11}
		if ex == NoAttention {
			cfg.Heads = 1
		}
		m := New(cfg)
		slow := m.forward(feat)
		ic, fast := waveOfOne(m, env.Cluster())

		check := func(name string, a, b *tensor.Tensor) {
			t.Helper()
			if a == nil || b == nil {
				if a != b {
					t.Fatalf("%v %s: nil mismatch", ex, name)
				}
				return
			}
			if a.Rows != b.Rows || a.Cols != b.Cols {
				t.Fatalf("%v %s: shape %dx%d vs %dx%d", ex, name, a.Rows, a.Cols, b.Rows, b.Cols)
			}
			for i := range a.Data {
				if math.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
					t.Fatalf("%v %s: element %d: %g vs %g", ex, name, i, a.Data[i], b.Data[i])
				}
			}
		}
		check("pmE", slow.pmE, fast.pmAll)
		check("vmE", slow.vmE, fast.vmAll)
		check("crossProbs", slow.crossProbs, cross0(fast))

		vmMask := env.VMMask()
		check("vmLogits", m.vmLogits(slow, vmMask), m.vmLogitsRow(ic, m.vmLogitsBatch(ic, fast), 0, vmMask))
		pmMask := env.PMMask(0)
		check("pmLogits", m.pmLogits(slow, 0, pmMask), m.pmLogitsRow(ic, m.pmMergeBatch(ic, fast, []int{0}), 0, pmMask))
		check("jointLogits", m.jointLogits(slow, nil), m.jointLogitsBatchRow(ic, fast, 0, nil))
		if sv, fv := m.value(slow).Scalar(), m.valueInferBatch(ic, fast, nil)[0]; math.Abs(sv-fv) > 1e-12 {
			t.Fatalf("%v value: %g vs %g", ex, sv, fv)
		}
	}
}

// TestInferDeterministicAcrossContexts ensures a reused context and a fresh
// one pick identical actions, and that Infer agrees with Act under greedy
// selection (the deployment mode).
func TestInferDeterministicAcrossContexts(t *testing.T) {
	env := inferTestEnv(t, 5)
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Seed: 3})
	icA, icB := NewInferCtx(), NewInferCtx()
	for step := 0; step < 4; step++ {
		vmA, pmA, errA := m.Infer(icA, env, rand.New(rand.NewSource(1)), SampleOpts{Greedy: true})
		vmB, pmB, errB := m.Infer(icB, env, rand.New(rand.NewSource(1)), SampleOpts{Greedy: true})
		if errA != nil || errB != nil {
			t.Fatalf("step %d: errs %v %v", step, errA, errB)
		}
		if vmA != vmB || pmA != pmB {
			t.Fatalf("step %d: contexts diverged: (%d,%d) vs (%d,%d)", step, vmA, pmA, vmB, pmB)
		}
		dec, err := m.Act(env, rand.New(rand.NewSource(1)), SampleOpts{Greedy: true})
		if err != nil {
			t.Fatal(err)
		}
		if dec.State.VM != vmA || dec.State.PM != pmA {
			t.Fatalf("step %d: Act (%d,%d) != Infer (%d,%d)", step, dec.State.VM, dec.State.PM, vmA, pmA)
		}
		if _, _, err := env.Step(vmA, pmA); err != nil {
			t.Fatal(err)
		}
		if env.Done() {
			break
		}
	}
}

// TestInferSteadyStateAllocs verifies the full per-step inference pipeline
// (extract → forward → mask → sample) stops allocating once warm.
func TestInferSteadyStateAllocs(t *testing.T) {
	env := inferTestEnv(t, 7)
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 2, Seed: 9})
	ic := NewInferCtx()
	rng := rand.New(rand.NewSource(2))
	run := func() {
		if _, _, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm buffers
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Fatalf("steady-state Infer allocates %v times per step", allocs)
	}
}
