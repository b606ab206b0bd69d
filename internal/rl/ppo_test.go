package rl

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.RolloutSteps = 24
	cfg.Epochs = 2
	cfg.Minibatch = 12
	cfg.LR = 1e-3
	cfg.Seed = 1
	return cfg
}

func smallModel(action policy.ActionMode) *policy.Model {
	return policy.New(policy.Config{
		DModel: 16, Hidden: 24, Blocks: 1,
		Extractor: policy.SparseAttention, Action: action, Seed: 3,
	})
}

func trainMaps(n int) []*cluster.Cluster {
	rng := rand.New(rand.NewSource(42))
	p := trace.MustProfile("tiny")
	maps := make([]*cluster.Cluster, n)
	for i := range maps {
		// Fragmented mappings give the policy visible headroom, mirroring
		// production traces collected when a VMR request fires.
		maps[i] = p.GenerateFragmented(rng, 0.12, 12)
	}
	return maps
}

func TestUpdateProducesFiniteStats(t *testing.T) {
	m := smallModel(policy.TwoStage)
	tr := NewTrainer(m, smallCfg())
	maps := trainMaps(3)
	st, err := tr.Update(maps, sim.DefaultConfig(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"policy": st.PolicyLoss, "value": st.ValueLoss,
		"entropy": st.Entropy, "return": st.MeanReturn, "grad": st.GradNorm,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s loss is not finite: %v", name, v)
		}
	}
	if st.Entropy <= 0 {
		t.Errorf("entropy should be positive early in training: %v", st.Entropy)
	}
	if st.GradNorm == 0 {
		t.Error("no gradient flowed")
	}
}

func TestTrainingImprovesOverInitialPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	m := smallModel(policy.TwoStage)
	maps := trainMaps(6)
	envCfg := sim.DefaultConfig(4)
	before := EvalFR(m, maps, envCfg)
	cfg := smallCfg()
	cfg.RolloutSteps = 48
	tr := NewTrainer(m, cfg)
	if _, err := tr.Train(maps, envCfg, 12, nil); err != nil {
		t.Fatal(err)
	}
	after := EvalFR(m, maps, envCfg)
	if after > before+0.02 {
		t.Errorf("training made policy worse: %v -> %v", before, after)
	}
	// Trained greedy policy must beat doing nothing (initial FR) on these
	// deliberately fragmented mappings.
	init := 0.0
	for _, c := range maps {
		init += c.FragRate(16)
	}
	init /= float64(len(maps))
	if after > init {
		t.Errorf("trained policy FR %v worse than initial state %v", after, init)
	}
}

func TestTrainWithPenaltyMode(t *testing.T) {
	m := smallModel(policy.Penalty)
	tr := NewTrainer(m, smallCfg())
	maps := trainMaps(2)
	stats, err := tr.Train(maps, sim.DefaultConfig(3), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats length %d", len(stats))
	}
}

func TestTrainWithFullMaskMode(t *testing.T) {
	m := smallModel(policy.FullMask)
	tr := NewTrainer(m, smallCfg())
	maps := trainMaps(2)
	if _, err := tr.Update(maps, sim.DefaultConfig(3), 0); err != nil {
		t.Fatal(err)
	}
}

func TestGAEComputation(t *testing.T) {
	tr := NewTrainer(smallModel(policy.TwoStage), Config{Gamma: 0.5, Lambda: 0.5, Minibatch: 4, Epochs: 1})
	batch := []transition{
		{reward: 1, value: 0.5},
		{reward: 2, value: 0.25, done: true, epEnd: true},
		{reward: 3, value: 0.1, done: true, epEnd: true},
	}
	tr.computeGAE(batch)
	// Episode 1: delta1 = 2 - 0.25 = 1.75 (terminal); delta0 = 1 + 0.5*0.25 - 0.5 = 0.625.
	// adv0 = 0.625 + 0.25*1.75 = 1.0625.
	// Episode 2: adv = 3 - 0.1 = 2.9.
	wantRet := []float64{1.0625 + 0.5, 1.75 + 0.25, 2.9 + 0.1}
	for i, w := range wantRet {
		if math.Abs(batch[i].ret-w) > 1e-9 {
			t.Errorf("ret[%d] = %v, want %v", i, batch[i].ret, w)
		}
	}
	// Advantages are normalized to ~zero mean.
	mean := (batch[0].adv + batch[1].adv + batch[2].adv) / 3
	if math.Abs(mean) > 1e-9 {
		t.Errorf("normalized adv mean = %v", mean)
	}
}

func TestUpdateErrorsWithoutMaps(t *testing.T) {
	tr := NewTrainer(smallModel(policy.TwoStage), smallCfg())
	if _, err := tr.Update(nil, sim.DefaultConfig(3), 0); err == nil {
		t.Fatal("expected error with no training mappings")
	}
}

func TestEvalFREmptyAndNonEmpty(t *testing.T) {
	m := smallModel(policy.TwoStage)
	if got := EvalFR(m, nil, sim.DefaultConfig(3)); got != 0 {
		t.Errorf("EvalFR(nil) = %v", got)
	}
	maps := trainMaps(2)
	fr := EvalFR(m, maps, sim.DefaultConfig(3))
	if fr <= 0 || fr > 1 {
		t.Errorf("EvalFR out of range: %v", fr)
	}
}

func TestFilterRiskSeekingKeepsTopEpisodes(t *testing.T) {
	cfg := smallCfg()
	cfg.RiskQuantile = 0.5
	tr := NewTrainer(smallModel(policy.TwoStage), cfg)
	batch := []transition{
		{reward: 1, epEnd: false}, {reward: 1, epEnd: true}, // return 2
		{reward: -3, epEnd: true}, // return -3
		{reward: 5, epEnd: true},  // return 5
		{reward: 0, epEnd: true},  // return 0
	}
	kept := tr.filterRiskSeeking(batch)
	total := 0.0
	for _, k := range kept {
		total += k.reward
	}
	// Quantile 0.5 of {-3,0,2,5} -> threshold 0 (index 1): keeps returns
	// {2, 5, 0}; episode with -3 dropped.
	if total != 7 {
		t.Fatalf("kept rewards sum %v, want 7", total)
	}
	for _, k := range kept {
		if k.reward == -3 {
			t.Fatal("worst episode not dropped")
		}
	}
}

func TestFilterRiskSeekingDisabledAndDegenerate(t *testing.T) {
	tr := NewTrainer(smallModel(policy.TwoStage), smallCfg())
	batch := []transition{{reward: 1, epEnd: true}}
	if got := tr.filterRiskSeeking(batch); len(got) != 1 {
		t.Fatal("disabled filter must be identity")
	}
	cfg := smallCfg()
	cfg.RiskQuantile = 0.9
	tr2 := NewTrainer(smallModel(policy.TwoStage), cfg)
	if got := tr2.filterRiskSeeking(batch); len(got) != 1 {
		t.Fatal("single episode must survive")
	}
}

func TestRiskSeekingTrainingRuns(t *testing.T) {
	cfg := smallCfg()
	cfg.RiskQuantile = 0.5
	m := smallModel(policy.TwoStage)
	trn := NewTrainer(m, cfg)
	maps := trainMaps(3)
	if _, err := trn.Train(maps, sim.DefaultConfig(3), 2, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParallelCollectionTrains(t *testing.T) {
	cfg := smallCfg()
	cfg.Workers = 4
	cfg.RolloutSteps = 32
	m := smallModel(policy.TwoStage)
	tr := NewTrainer(m, cfg)
	maps := trainMaps(3)
	st, err := tr.Update(maps, sim.DefaultConfig(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.GradNorm == 0 {
		t.Fatal("parallel collection produced no gradient")
	}
}

func TestParallelCollectionDeterministic(t *testing.T) {
	maps := trainMaps(3)
	run := func() UpdateStats {
		cfg := smallCfg()
		cfg.Workers = 3
		cfg.RolloutSteps = 24
		m := smallModel(policy.TwoStage)
		tr := NewTrainer(m, cfg)
		st, err := tr.Update(maps, sim.DefaultConfig(3), 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.PolicyLoss != b.PolicyLoss || a.ValueLoss != b.ValueLoss || a.MeanReturn != b.MeanReturn {
		t.Fatalf("parallel collection nondeterministic: %+v vs %+v", a, b)
	}
}

// TestConcurrentTrainersMatchSequential: each trainer owns its graph pool,
// so two trainers updating at once neither share buffers (run under -race)
// nor change each other's numbers — the concurrent statistics equal those
// of the same trainers run one after the other.
func TestConcurrentTrainersMatchSequential(t *testing.T) {
	maps := trainMaps(2)
	envCfg := sim.DefaultConfig(3)
	run := func(action policy.ActionMode) ([]UpdateStats, error) {
		return NewTrainer(smallModel(action), smallCfg()).Train(maps, envCfg, 2, nil)
	}
	modes := []policy.ActionMode{policy.TwoStage, policy.FullMask}
	want := make([][]UpdateStats, len(modes))
	for i, mode := range modes {
		var err error
		if want[i], err = run(mode); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]UpdateStats, len(modes))
	errs := make([]error, len(modes))
	var wg sync.WaitGroup
	for i, mode := range modes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(mode)
		}()
	}
	wg.Wait()
	for i := range modes {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("mode %v: concurrent stats %+v, sequential %+v", modes[i], got[i], want[i])
		}
	}
}
