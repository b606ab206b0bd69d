// Package rl implements the PPO training loop of VMR2L, following the
// CleanRL single-file recipe the paper builds on (Huang et al., JMLR'22):
// clipped surrogate objective, generalized advantage estimation, entropy
// bonus, minibatch Adam with global gradient clipping.
package rl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vmr2l/internal/cluster"
	"vmr2l/internal/nn"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// Config holds PPO hyperparameters.
type Config struct {
	Gamma        float64 // discount
	Lambda       float64 // GAE lambda
	ClipEps      float64 // PPO clipping epsilon
	EntCoef      float64 // entropy bonus coefficient
	ValueCoef    float64 // value loss coefficient
	LR           float64
	MaxGradNorm  float64
	RolloutSteps int // minimum env steps collected per update
	Epochs       int // optimization epochs per update
	Minibatch    int
	Penalty      float64 // reward for illegal actions in Penalty mode
	// RiskQuantile, when in (0,1), enables risk-seeking training (paper
	// section 8 future work; Petersen et al., ICLR'21): only episodes whose
	// return reaches the batch's q-th quantile contribute gradient, so the
	// policy optimizes best-case rather than average-case performance —
	// aligned with the risk-seeking evaluation pipeline that deploys only
	// the best sampled trajectory.
	RiskQuantile float64
	// Workers collects rollouts on that many goroutines (the model is
	// read-only during collection, so sharing parameters is safe — the same
	// property risk-seeking evaluation exploits). 0 or 1 means sequential.
	// Results are merged in worker order, so training stays deterministic
	// for a fixed seed regardless of scheduling.
	Workers int
	// Envs, when > 1, collects rollouts through the vectorized stepper: that
	// many environments run lock-step on one goroutine and every wave issues
	// a single batched forward (policy.ActBatch) instead of one forward per
	// environment. Environments that finish their share drop out of the wave
	// (ragged tail). Deterministic for a fixed seed (per-env rngs, merged in
	// env order); takes precedence over Workers.
	Envs int
	Seed int64
}

// DefaultConfig mirrors CleanRL's PPO defaults, scaled for small clusters.
func DefaultConfig() Config {
	return Config{
		Gamma: 0.99, Lambda: 0.95, ClipEps: 0.2, EntCoef: 0.01, ValueCoef: 0.5,
		LR: 3e-4, MaxGradNorm: 0.5, RolloutSteps: 128, Epochs: 3, Minibatch: 32,
		Penalty: -5,
	}
}

// transition is one stored environment step.
type transition struct {
	state   *policy.State
	logp    float64
	value   float64
	reward  float64
	adv     float64
	ret     float64
	done    bool
	epEnd   bool // last transition of its episode (terminal or truncated)
	illegal bool // Penalty mode: action was rejected by the simulator
}

// UpdateStats reports one PPO update.
type UpdateStats struct {
	Update     int
	MeanReturn float64 // mean undiscounted episode return in the batch
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
	GradNorm   float64
}

// Trainer trains a policy model on a set of initial mappings.
type Trainer struct {
	Model *policy.Model
	Cfg   Config
	opt   *nn.Adam
	rng   *rand.Rand
	// pool recycles minibatch graph storage across Update calls.
	pool *tensor.GraphPool
	// bic is the batched inference context the vectorized stepper reuses
	// across waves, episodes, and updates.
	bic *policy.BatchInferCtx
}

// NewTrainer builds a trainer (one Adam state per trainer).
func NewTrainer(m *policy.Model, cfg Config) *Trainer {
	if cfg.Minibatch < 1 {
		cfg.Minibatch = 32
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 1
	}
	return &Trainer{
		Model: m,
		Cfg:   cfg,
		opt:   nn.NewAdam(m.Params, cfg.LR),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// collect gathers at least RolloutSteps transitions of whole episodes, each
// episode starting from a random mapping in maps. With Cfg.Workers > 1 the
// episodes are collected concurrently and merged in worker order.
func (t *Trainer) collect(maps []*cluster.Cluster, envCfg sim.Config) ([]transition, float64) {
	if t.Cfg.Envs > 1 {
		return t.collectVectorized(maps, envCfg)
	}
	if t.Cfg.Workers > 1 {
		return t.collectParallel(maps, envCfg)
	}
	return t.collectWith(maps, envCfg, t.rng, t.Cfg.RolloutSteps)
}

// collectVectorized lock-steps Cfg.Envs environments and issues one batched
// forward per wave: the B environments' feature rows are stacked so every
// row-wise network stage runs as a single GEMM. Each environment owns a
// deterministic rng (the same derivation collectParallel uses per worker)
// and contributes whole episodes until it reaches its share of
// RolloutSteps, then drops out of the wave; batches merge in env order.
func (t *Trainer) collectVectorized(maps []*cluster.Cluster, envCfg sim.Config) ([]transition, float64) {
	n := t.Cfg.Envs
	per := (t.Cfg.RolloutSteps + n - 1) / n
	if t.bic == nil {
		t.bic = policy.NewBatchInferCtx()
	}
	type envState struct {
		env      *sim.Env
		rng      *rand.Rand
		batch    []transition
		epReturn float64
		returns  []float64
	}
	states := make([]envState, n)
	active := make([]int, 0, n)
	for i := range states {
		s := &states[i]
		s.rng = rand.New(rand.NewSource(t.Cfg.Seed*1_000_003 + int64(i)))
		s.env = sim.New(maps[s.rng.Intn(len(maps))], envCfg)
		active = append(active, i)
	}
	// endEpisode closes the env's running episode (epEnd fix-up mirrors the
	// sequential loop) and reports whether the env still needs steps.
	endEpisode := func(s *envState) bool {
		if k := len(s.batch); k > 0 && !s.batch[k-1].epEnd {
			s.batch[k-1].epEnd = true
		}
		s.returns = append(s.returns, s.epReturn)
		s.epReturn = 0
		if len(s.batch) >= per {
			return false
		}
		s.env = sim.New(maps[s.rng.Intn(len(maps))], envCfg)
		return true
	}
	waveEnvs := make([]*sim.Env, 0, n)
	waveRngs := make([]*rand.Rand, 0, n)
	for len(active) > 0 {
		waveEnvs, waveRngs = waveEnvs[:0], waveRngs[:0]
		for _, i := range active {
			waveEnvs = append(waveEnvs, states[i].env)
			waveRngs = append(waveRngs, states[i].rng)
		}
		decs := t.Model.ActBatch(t.bic, waveEnvs, waveRngs, []policy.SampleOpts{{}})
		keep := active[:0]
		for k, i := range active {
			s := &states[i]
			dec := decs[k]
			if dec == nil {
				// No migratable VM: the episode is over.
				if endEpisode(s) {
					keep = append(keep, i)
				}
				continue
			}
			var r float64
			var done bool
			var err error
			illegal := false
			if t.Model.Cfg.Action == policy.Penalty {
				before := s.env.StepsTaken()
				r, done, err = s.env.PenaltyStep(dec.State.VM, dec.State.PM, t.Cfg.Penalty)
				illegal = err == nil && s.env.StepsTaken() == before+1 && r == t.Cfg.Penalty
			} else {
				r, done, err = s.env.Step(dec.State.VM, dec.State.PM)
			}
			if err != nil {
				if endEpisode(s) {
					keep = append(keep, i)
				}
				continue
			}
			s.batch = append(s.batch, transition{
				state: dec.State, logp: dec.LogProb, value: dec.Value,
				reward: r, done: done, epEnd: done, illegal: illegal,
			})
			s.epReturn += r
			if done {
				if endEpisode(s) {
					keep = append(keep, i)
				}
				continue
			}
			keep = append(keep, i)
		}
		active = keep
	}
	var batch []transition
	mean := 0.0
	for i := range states {
		batch = append(batch, states[i].batch...)
		m := 0.0
		for _, r := range states[i].returns {
			m += r
		}
		if len(states[i].returns) > 0 {
			m /= float64(len(states[i].returns))
		}
		mean += m
	}
	return batch, mean / float64(n)
}

// collectParallel fans episode collection out to Cfg.Workers goroutines,
// each with a deterministic per-worker rng, merging batches in worker order.
func (t *Trainer) collectParallel(maps []*cluster.Cluster, envCfg sim.Config) ([]transition, float64) {
	w := t.Cfg.Workers
	per := (t.Cfg.RolloutSteps + w - 1) / w
	batches := make([][]transition, w)
	returns := make([]float64, w)
	done := make(chan int, w)
	for i := 0; i < w; i++ {
		go func(i int) {
			rng := rand.New(rand.NewSource(t.Cfg.Seed*1_000_003 + int64(i)))
			batches[i], returns[i] = t.collectWith(maps, envCfg, rng, per)
			done <- i
		}(i)
	}
	for i := 0; i < w; i++ {
		<-done
	}
	var batch []transition
	mean := 0.0
	for i := 0; i < w; i++ {
		batch = append(batch, batches[i]...)
		mean += returns[i]
	}
	return batch, mean / float64(w)
}

// collectWith is the single-threaded collection loop over an explicit rng.
// One inference context serves every decision of the call instead of a pool
// round-trip per step.
func (t *Trainer) collectWith(maps []*cluster.Cluster, envCfg sim.Config, rng *rand.Rand, steps int) ([]transition, float64) {
	var batch []transition
	episodeReturns := []float64{}
	ic := policy.NewInferCtx()
	for len(batch) < steps {
		init := maps[rng.Intn(len(maps))]
		env := sim.New(init, envCfg)
		epReturn := 0.0
		for !env.Done() {
			dec, err := t.Model.ActCtx(ic, env, rng, policy.SampleOpts{})
			if err != nil {
				break // no migratable VM: end episode
			}
			var r float64
			var done bool
			illegal := false
			if t.Model.Cfg.Action == policy.Penalty {
				before := env.StepsTaken()
				r, done, err = env.PenaltyStep(dec.State.VM, dec.State.PM, t.Cfg.Penalty)
				if err != nil {
					break
				}
				illegal = env.StepsTaken() == before+1 && r == t.Cfg.Penalty
			} else {
				r, done, err = env.Step(dec.State.VM, dec.State.PM)
				if err != nil {
					break
				}
			}
			batch = append(batch, transition{
				state: dec.State, logp: dec.LogProb, value: dec.Value,
				reward: r, done: done, epEnd: done, illegal: illegal,
			})
			epReturn += r
		}
		if n := len(batch); n > 0 && !batch[n-1].epEnd {
			batch[n-1].epEnd = true
		}
		episodeReturns = append(episodeReturns, epReturn)
	}
	meanRet := 0.0
	for _, r := range episodeReturns {
		meanRet += r
	}
	if len(episodeReturns) > 0 {
		meanRet /= float64(len(episodeReturns))
	}
	return batch, meanRet
}

// computeGAE fills adv and ret in place (episodes are delimited by done).
func (t *Trainer) computeGAE(batch []transition) {
	adv := 0.0
	for i := len(batch) - 1; i >= 0; i-- {
		var nextValue float64
		if !batch[i].epEnd && i+1 < len(batch) {
			nextValue = batch[i+1].value
		}
		delta := batch[i].reward + t.Cfg.Gamma*nextValue - batch[i].value
		if batch[i].epEnd {
			adv = delta
		} else {
			adv = delta + t.Cfg.Gamma*t.Cfg.Lambda*adv
		}
		batch[i].adv = adv
		batch[i].ret = adv + batch[i].value
	}
	// Advantage normalization.
	mean, sq := 0.0, 0.0
	for _, tr := range batch {
		mean += tr.adv
	}
	mean /= float64(len(batch))
	for _, tr := range batch {
		sq += (tr.adv - mean) * (tr.adv - mean)
	}
	std := math.Sqrt(sq/float64(len(batch))) + 1e-8
	for i := range batch {
		batch[i].adv = (batch[i].adv - mean) / std
	}
}

// filterRiskSeeking implements risk-seeking training: it drops whole
// episodes whose undiscounted return falls below the RiskQuantile-th
// quantile of the batch, keeping at least one episode.
func (t *Trainer) filterRiskSeeking(batch []transition) []transition {
	q := t.Cfg.RiskQuantile
	if q <= 0 || q >= 1 {
		return batch
	}
	var episodes [][]transition
	start := 0
	for i := range batch {
		if batch[i].epEnd {
			episodes = append(episodes, batch[start:i+1])
			start = i + 1
		}
	}
	if start < len(batch) {
		episodes = append(episodes, batch[start:])
	}
	if len(episodes) <= 1 {
		return batch
	}
	returns := make([]float64, len(episodes))
	for ei, ep := range episodes {
		for _, tr := range ep {
			returns[ei] += tr.reward
		}
	}
	sorted := append([]float64(nil), returns...)
	sort.Float64s(sorted)
	threshold := sorted[int(q*float64(len(sorted)-1))]
	var kept []transition
	for ei, ep := range episodes {
		if returns[ei] >= threshold {
			kept = append(kept, ep...)
		}
	}
	if len(kept) == 0 {
		return batch
	}
	return kept
}

// Update performs one PPO update (collect, GAE, clipped optimization) and
// returns its statistics.
func (t *Trainer) Update(maps []*cluster.Cluster, envCfg sim.Config, updateIdx int) (UpdateStats, error) {
	if len(maps) == 0 {
		return UpdateStats{}, fmt.Errorf("rl: no training mappings")
	}
	batch, meanRet := t.collect(maps, envCfg)
	if len(batch) == 0 {
		return UpdateStats{}, fmt.Errorf("rl: empty rollout batch")
	}
	batch = t.filterRiskSeeking(batch)
	t.computeGAE(batch)
	stats := UpdateStats{Update: updateIdx, MeanReturn: meanRet}
	idx := make([]int, len(batch))
	for i := range idx {
		idx[i] = i
	}
	nMB := 0
	// Route the minibatch graphs' storage through the trainer's recycling
	// pool: each minibatch builds and discards one autograd graph, so its
	// buffers are reused instead of churning the allocator.
	if t.pool == nil {
		t.pool = &tensor.GraphPool{}
	}
	for epoch := 0; epoch < t.Cfg.Epochs; epoch++ {
		t.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += t.Cfg.Minibatch {
			end := start + t.Cfg.Minibatch
			if end > len(idx) {
				end = len(idx)
			}
			mb := idx[start:end]
			// All scalars of the previous minibatch have been extracted;
			// recycle its graph storage.
			t.pool.Reset()
			t.Model.Params.ZeroGrad()
			var pgTerms, vTerms, entTerms []*tensor.Tensor
			for _, i := range mb {
				tr := batch[i]
				ev := t.Model.EvaluateIn(tr.state, t.pool)
				// ratio = exp(logp_new - logp_old)
				ratio := tensor.Exp(tensor.AddScalar(ev.LogProb, -tr.logp))
				surr1 := tensor.Scale(ratio, tr.adv)
				surr2 := tensor.Scale(tensor.Clamp(ratio, 1-t.Cfg.ClipEps, 1+t.Cfg.ClipEps), tr.adv)
				pg := tensor.Scale(tensor.Min(surr1, surr2), -1)
				diff := tensor.AddScalar(ev.Value, -tr.ret)
				vl := tensor.Mul(diff, diff)
				pgTerms = append(pgTerms, pg)
				vTerms = append(vTerms, vl)
				entTerms = append(entTerms, ev.Entropy)
			}
			pgLoss := tensor.Mean(stack(pgTerms))
			vLoss := tensor.Mean(stack(vTerms))
			ent := tensor.Mean(stack(entTerms))
			loss := tensor.Add(pgLoss,
				tensor.Sub(tensor.Scale(vLoss, t.Cfg.ValueCoef), tensor.Scale(ent, t.Cfg.EntCoef)))
			loss.Backward()
			t.Model.Params.ClipGrad(t.Cfg.MaxGradNorm)
			stats.GradNorm += t.Model.Params.GradNorm()
			t.opt.Step()
			stats.PolicyLoss += pgLoss.Scalar()
			stats.ValueLoss += vLoss.Scalar()
			stats.Entropy += ent.Scalar()
			nMB++
		}
	}
	if nMB > 0 {
		stats.PolicyLoss /= float64(nMB)
		stats.ValueLoss /= float64(nMB)
		stats.Entropy /= float64(nMB)
		stats.GradNorm /= float64(nMB)
	}
	return stats, nil
}

// stack concatenates 1×1 tensors into an n×1 tensor.
func stack(ts []*tensor.Tensor) *tensor.Tensor {
	out := ts[0]
	for _, t := range ts[1:] {
		out = tensor.ConcatRows(out, t)
	}
	return out
}

// Train runs n updates, invoking onUpdate (if non-nil) after each — the hook
// used to record the convergence curves of Figs. 10, 13, and 20.
func (t *Trainer) Train(maps []*cluster.Cluster, envCfg sim.Config, n int, onUpdate func(UpdateStats)) ([]UpdateStats, error) {
	var all []UpdateStats
	for u := 0; u < n; u++ {
		st, err := t.Update(maps, envCfg, u)
		if err != nil {
			return all, err
		}
		all = append(all, st)
		if onUpdate != nil {
			onUpdate(st)
		}
	}
	return all, nil
}

// EvalFR rolls the greedy policy on each mapping and returns the mean final
// objective value (FR for the default objective) — the "test fragment rate"
// of the paper's convergence plots. All mappings roll in lock-step through
// one pooled batched context (Agent.SolveBatch), so every evaluation wave is
// a single stacked forward instead of one per mapping, and the context is
// reused across every episode of the call. Greedy selection ignores the rng,
// so the result equals the sequential per-mapping rollout.
func EvalFR(m *policy.Model, maps []*cluster.Cluster, envCfg sim.Config) float64 {
	return EvalFRWith(&policy.Agent{Model: m, Opts: policy.SampleOpts{Greedy: true}}, maps, envCfg)
}

// BatchRoller rolls a set of environments to completion in lock-step waves.
// policy.Agent implements it directly; the continuous-batching scheduler's
// agent (internal/serve) implements it on top of shared serving waves, so an
// evaluation can ride the same GEMMs as live traffic.
type BatchRoller interface {
	SolveBatch(ctx context.Context, envs []*sim.Env) error
}

// EvalFRWith is EvalFR over any batch-capable rollout engine.
func EvalFRWith(ag BatchRoller, maps []*cluster.Cluster, envCfg sim.Config) float64 {
	if len(maps) == 0 {
		return 0
	}
	envs := make([]*sim.Env, len(maps))
	for i, init := range maps {
		envs[i] = sim.New(init, envCfg)
	}
	// An agent error leaves episodes short; count current values regardless.
	_ = ag.SolveBatch(context.Background(), envs)
	total := 0.0
	for _, env := range envs {
		total += env.Value()
	}
	return total / float64(len(maps))
}
