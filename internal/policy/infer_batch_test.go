package policy

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// batchTestEnv builds a small random environment; nVM varies so batches are
// ragged (different row counts per environment).
func batchTestEnv(t *testing.T, seed int64, nPM, nVM, mnl int) *sim.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(nPM, cluster.PMSmall)
	for i := 0; i < nVM; i++ {
		vt := cluster.StandardTypes[rng.Intn(4)]
		id := c.AddVM(vt)
		pm := rng.Intn(len(c.PMs))
		numa := rng.Intn(cluster.NumasPerPM)
		if c.VMs[id].Numas == 2 {
			numa = 0
		}
		for try := 0; try < 6 && c.Place(id, pm, numa) != nil; try++ {
			pm = rng.Intn(len(c.PMs))
		}
	}
	return sim.New(c, sim.DefaultConfig(mnl))
}

// waveOfOne runs the wave forward on one cluster state: the
// single-environment inference reference.
func waveOfOne(m *Model, c *cluster.Cluster) (*BatchInferCtx, *batchOut) {
	bc := NewBatchInferCtx()
	bc.arena.Reset()
	bc.fb.Extract([]*cluster.Cluster{c})
	return bc, m.forwardInferBatch(bc)
}

// cross0 is the stage-3 attention of a one-environment wave (nil without
// attention).
func cross0(out *batchOut) *tensor.Tensor {
	if out.crossProbs == nil {
		return nil
	}
	return out.crossProbs[0]
}

// bitEqual asserts two tensors match exactly (same bits, not a tolerance):
// the batched forward must reproduce the sequential float ops, not
// approximate them.
func bitEqual(t *testing.T, name string, want, got *tensor.Tensor) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: element %d: %v != %v", name, i, want.Data[i], got.Data[i])
		}
	}
}

// TestForwardBatchBitIdentical pins the core contract: every environment's
// segment of the stacked batched forward is bit-identical to its own
// wave of one, for every extractor mode and ragged batch sizes.
func TestForwardBatchBitIdentical(t *testing.T) {
	for _, ex := range []ExtractorMode{SparseAttention, VanillaAttention, NoAttention} {
		cfg := Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2, Extractor: ex, Seed: 11}
		if ex == NoAttention {
			cfg.Heads = 1
		}
		m := New(cfg)
		for _, B := range []int{1, 3, 8} {
			envs := make([]*sim.Env, B)
			for b := range envs {
				envs[b] = batchTestEnv(t, int64(100*B+b), 3+b%3, 8+3*b, 6)
			}
			bc := NewBatchInferCtx()
			bc.arena.Reset()
			bc.extractBatch(envs)
			out := m.forwardInferBatch(bc)
			bc.values = m.valueInferBatch(bc, out, bc.values)
			vmCol := m.vmLogitsBatch(bc, out)

			for b, env := range envs {
				ic, seq := waveOfOne(m, env.Cluster())

				pmSeg := tensor.New(seq.pmAll.Rows, seq.pmAll.Cols)
				copy(pmSeg.Data, out.pmAll.Data[bc.fb.PMOff[b]*16:bc.fb.PMOff[b+1]*16])
				bitEqual(t, "pmE", seq.pmAll, pmSeg)
				vmSeg := tensor.New(seq.vmAll.Rows, seq.vmAll.Cols)
				copy(vmSeg.Data, out.vmAll.Data[bc.fb.VMOff[b]*16:bc.fb.VMOff[b+1]*16])
				bitEqual(t, "vmE", seq.vmAll, vmSeg)
				if seq.crossProbs != nil {
					bitEqual(t, "crossProbs", cross0(seq), out.crossProbs[b])
				} else if out.crossProbs != nil {
					t.Fatalf("%v: batched crossProbs non-nil for NoAttention", ex)
				}
				if sv := m.valueInferBatch(ic, seq, nil)[0]; sv != bc.values[b] {
					t.Fatalf("%v env %d value: %v != %v", ex, b, sv, bc.values[b])
				}
				mask := env.VMMask()
				bitEqual(t, "vmLogits", m.vmLogitsRow(ic, m.vmLogitsBatch(ic, seq), 0, mask), m.vmLogitsRow(bc, vmCol, b, mask))
			}
		}
	}
}

// TestInferBatchMatchesSequential is the end-to-end property test: whole
// lock-step episodes across all three action modes, batch sizes 1/3/8,
// sampled (non-greedy) actions with thresholding, environments finishing at
// different times (ragged last waves). Every wave's batched decisions must
// equal what the sequential Infer picks with the same rng streams.
func TestInferBatchMatchesSequential(t *testing.T) {
	for _, mode := range []ActionMode{TwoStage, Penalty, FullMask} {
		m := New(Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2, Action: mode, Seed: 5})
		for _, B := range []int{1, 3, 8} {
			envs := make([]*sim.Env, B)
			for b := range envs {
				// Different MNLs force ragged last waves.
				envs[b] = batchTestEnv(t, int64(7*B+b), 3+b%2, 8+2*b, 2+b%4)
			}
			opts := make([]SampleOpts, B)
			rngs := make([]*rand.Rand, B)
			for b := range opts {
				if mode == TwoStage && b%2 == 1 {
					opts[b] = SampleOpts{VMQuantile: 0.5, PMQuantile: 0.5}
				}
				if b == 0 {
					opts[b].Greedy = true
				}
				rngs[b] = rand.New(rand.NewSource(int64(40 + b)))
			}
			bc := NewBatchInferCtx()
			ic := NewInferCtx()
			for wave := 0; ; wave++ {
				if wave > 200 {
					t.Fatal("batch rollout did not terminate")
				}
				var active []int
				for b, env := range envs {
					if !env.Done() {
						active = append(active, b)
					}
				}
				if len(active) == 0 {
					break
				}
				waveEnvs := make([]*sim.Env, len(active))
				waveOpts := make([]SampleOpts, len(active))
				waveRngs := make([]*rand.Rand, len(active))
				seqActs := make([]BatchAction, len(active))
				for k, b := range active {
					waveEnvs[k] = envs[b]
					waveOpts[k] = opts[b]
					// Sequential reference first, on a fresh rng with a
					// wave+env-derived seed; the batch then replays the same
					// stream.
					seed := int64(1000*wave + b)
					vm, pm, err := m.Infer(ic, envs[b], rand.New(rand.NewSource(seed)), opts[b])
					seqActs[k] = BatchAction{VM: vm, PM: pm, Err: err}
					waveRngs[k] = rand.New(rand.NewSource(seed))
				}
				acts := m.InferBatch(bc, waveEnvs, waveRngs, waveOpts, nil)
				for k, b := range active {
					if acts[k] != seqActs[k] {
						t.Fatalf("mode %v B=%d wave %d env %d: batch %+v != sequential %+v",
							mode, B, wave, b, acts[k], seqActs[k])
					}
					if acts[k].Err != nil {
						// Mark the episode over the way RolloutBatch does.
						continue
					}
					env := envs[b]
					if mode == Penalty {
						if _, _, err := env.PenaltyStep(acts[k].VM, acts[k].PM, -5); err != nil {
							t.Fatal(err)
						}
					} else if _, _, err := env.Step(acts[k].VM, acts[k].PM); err != nil {
						t.Fatal(err)
					}
				}
				// Environments whose stage 1 had no candidate stay done-less
				// but would never progress; finish them.
				for k, b := range active {
					if acts[k].Err != nil {
						envs[b] = batchTestEnv(t, int64(999), 3, 0, 0) // done env placeholder
					}
				}
			}
		}
	}
}

// TestActBatchMatchesAct pins the training path: ActBatch decisions (action,
// log-prob, value, masks) equal sequential Act with the same rng streams.
func TestActBatchMatchesAct(t *testing.T) {
	for _, mode := range []ActionMode{TwoStage, Penalty, FullMask} {
		m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Heads: 1, Action: mode, Seed: 9})
		B := 4
		envs := make([]*sim.Env, B)
		for b := range envs {
			envs[b] = batchTestEnv(t, int64(50+b), 4, 10+b, 6)
		}
		bc := NewBatchInferCtx()
		rngs := make([]*rand.Rand, B)
		seqDecs := make([]*Decision, B)
		for b := range envs {
			seed := int64(300 + b)
			dec, err := m.Act(envs[b], rand.New(rand.NewSource(seed)), SampleOpts{})
			if err != nil {
				t.Fatal(err)
			}
			seqDecs[b] = dec
			rngs[b] = rand.New(rand.NewSource(seed))
		}
		decs := m.ActBatch(bc, envs, rngs, []SampleOpts{{}})
		for b := range envs {
			want, got := seqDecs[b], decs[b]
			if got == nil {
				t.Fatalf("mode %v env %d: nil batch decision", mode, b)
			}
			if want.State.VM != got.State.VM || want.State.PM != got.State.PM {
				t.Fatalf("mode %v env %d: action (%d,%d) != (%d,%d)", mode, b,
					got.State.VM, got.State.PM, want.State.VM, want.State.PM)
			}
			if want.LogProb != got.LogProb || want.Value != got.Value {
				t.Fatalf("mode %v env %d: logp/value %v/%v != %v/%v", mode, b,
					got.LogProb, got.Value, want.LogProb, want.Value)
			}
			// The stored snapshot must be detached from the batch buffers.
			if len(got.State.Feat.FlatVM()) > 0 && len(bc.fb.FlatVM()) > 0 &&
				&got.State.Feat.FlatVM()[0] == &bc.fb.Envs[b].FlatVM()[0] {
				t.Fatalf("mode %v env %d: state snapshot aliases batch buffer", mode, b)
			}
		}
	}
}

// TestRolloutBatchMatchesAgentSolve pins Agent.SolveBatch against per-env
// sequential Agent.Solve with the derived seeds.
func TestRolloutBatchMatchesAgentSolve(t *testing.T) {
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Seed: 13})
	B := 5
	batched := make([]*sim.Env, B)
	seq := make([]*sim.Env, B)
	for b := range batched {
		batched[b] = batchTestEnv(t, int64(70+b), 4, 9+2*b, 3+b)
		seq[b] = batchTestEnv(t, int64(70+b), 4, 9+2*b, 3+b)
	}
	ag := Agent{Model: m, Seed: 21}
	for b := range seq {
		sag := Agent{Model: m, Seed: 21 + 1_000_003*int64(b)}
		if err := sag.Solve(context.Background(), seq[b]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ag.SolveBatch(context.Background(), batched); err != nil {
		t.Fatal(err)
	}
	for b := range seq {
		sp, bp := seq[b].Plan(), batched[b].Plan()
		if len(sp) != len(bp) {
			t.Fatalf("env %d: plan length %d != %d", b, len(bp), len(sp))
		}
		for i := range sp {
			if sp[i] != bp[i] {
				t.Fatalf("env %d migration %d: %+v != %+v", b, i, bp[i], sp[i])
			}
		}
		if seq[b].Value() != batched[b].Value() {
			t.Fatalf("env %d: value %v != %v", b, batched[b].Value(), seq[b].Value())
		}
	}
}

// TestInferBatchParallelKernelsBitIdentical reruns the batch-vs-sequential
// comparison with GOMAXPROCS forced to 4, so the stacked GEMMs and the
// segmented/grouped attention take their goroutine fan-out paths: actions
// must still match the sequential reference exactly.
func TestInferBatchParallelKernelsBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	m := New(Config{DModel: 32, Hidden: 64, Blocks: 2, Heads: 2, Seed: 3})
	B := 8
	envs := make([]*sim.Env, B)
	for b := range envs {
		envs[b] = batchTestEnv(t, int64(60+b), 4, 20+b, 4)
	}
	bc := NewBatchInferCtx()
	ic := NewInferCtx()
	for wave := 0; wave < 3; wave++ {
		rngs := make([]*rand.Rand, B)
		want := make([]BatchAction, B)
		for b := range envs {
			seed := int64(10*wave + b)
			vm, pm, err := m.Infer(ic, envs[b], rand.New(rand.NewSource(seed)), SampleOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want[b] = BatchAction{VM: vm, PM: pm}
			rngs[b] = rand.New(rand.NewSource(seed))
		}
		acts := m.InferBatch(bc, envs, rngs, []SampleOpts{{}}, nil)
		for b := range envs {
			if acts[b] != want[b] {
				t.Fatalf("wave %d env %d: batch %+v != seq %+v", wave, b, acts[b], want[b])
			}
		}
		for b, env := range envs {
			if env.Done() {
				continue
			}
			if _, _, err := env.Step(acts[b].VM, acts[b].PM); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInferBatchSteadyStateAllocs verifies a warm batched step (extract →
// stacked forward → mask → sample for every environment) allocates nothing.
func TestInferBatchSteadyStateAllocs(t *testing.T) {
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 2, Seed: 9})
	B := 4
	envs := make([]*sim.Env, B)
	rngs := make([]*rand.Rand, B)
	opts := make([]SampleOpts, B)
	for b := range envs {
		envs[b] = batchTestEnv(t, int64(20+b), 4, 10+b, 1<<30)
		rngs[b] = rand.New(rand.NewSource(int64(b)))
		opts[b] = SampleOpts{Greedy: true}
	}
	bc := NewBatchInferCtx()
	run := func() {
		bc.acts = m.InferBatch(bc, envs, rngs, opts, bc.acts)
	}
	run() // warm buffers
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Fatalf("steady-state InferBatch allocates %v times per wave", allocs)
	}
}

// TestValuesBatchMatchesSequential checks the MCTS expansion primitive
// against per-state sequential critic values.
func TestValuesBatchMatchesSequential(t *testing.T) {
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Seed: 17})
	var cs []*cluster.Cluster
	for b := 0; b < 5; b++ {
		cs = append(cs, batchTestEnv(t, int64(b), 3+b%2, 7+b, 4).Cluster())
	}
	bc := NewBatchInferCtx()
	got := m.ValuesBatch(bc, cs, nil)
	for b, c := range cs {
		ic, out := waveOfOne(m, c)
		if want := m.valueInferBatch(ic, out, nil)[0]; want != got[b] {
			t.Fatalf("state %d: value %v != %v", b, got[b], want)
		}
	}
}
