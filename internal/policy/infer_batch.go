package policy

import (
	"context"
	"math/rand"
	"sync"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// Batched inference: one forward pass for many environments. The B
// environments' PM rows are stacked into one (ΣnPM)×d matrix and their VM
// rows into one (ΣnVM)×d matrix, so every row-wise stage — the embedding
// MLPs, the feed-forward blocks, layer norms, residuals, and the actor/critic
// heads — runs as a single B-row GEMM through the register-blocked matmul
// kernels instead of B single-environment calls. The cross-row stages
// (tree-local, self, and cross attention) are block-diagonal per environment
// and run on zero-copy row segments through the same kernels. Because every
// kernel computes each output row independently of how many other rows share
// the call, environment b's result does not depend on the other rows of the
// wave: a one-row wave is Model.Infer, and the property tests in
// infer_batch_test.go pin that equivalence for every action mode, including
// ragged batches.

// BatchAction is one environment's decision from InferBatch.
type BatchAction struct {
	VM, PM int
	// Err is ErrNoMigratableVM when stage 1 had no legal candidate for this
	// environment (the environment's episode is effectively over).
	Err error
}

// BatchInferCtx is the pooled scratch state of the wave: a tensor arena for
// the stacked forward pass, the batched feature extractor, the concatenated
// tree partition, and reusable mask/probability buffers. Reuse one across
// waves and episodes; it is not safe for concurrent use. At a stable batch
// shape a full InferBatch performs zero heap allocations.
type BatchInferCtx struct {
	arena tensor.Arena
	fb    sim.FeatureBatch
	gb    groupBuf
	out   batchOut

	// Sampling scratch, reused across environments and waves.
	vmMask    []bool
	pmMask    []bool
	jointMask []bool
	vmProbs   []float64
	pmProbs   []float64
	sortBuf   []float64
	vmSel     []int
	vmLogp    []float64
	values    []float64

	// Wave scratch for RolloutBatch and the typed wrappers.
	clusters []*cluster.Cluster
	active   []int
	waveEnvs []*sim.Env
	waveRngs []*rand.Rand
	waveOpts []SampleOpts
	acts     []BatchAction
	reqs     []WaveReq
	waveRes  []WaveRes
}

// NewBatchInferCtx returns an empty batched inference context.
func NewBatchInferCtx() *BatchInferCtx { return &BatchInferCtx{} }

// batchPool recycles contexts for callers that do not manage their own.
var batchPool = sync.Pool{New: func() any { return NewBatchInferCtx() }}

// AcquireBatchCtx returns a pooled batched inference context with warm
// buffers; call Release when done. External consumers (risk-seeking
// evaluation, MCTS value priors) use this instead of growing a fresh
// context's arena per request.
func AcquireBatchCtx() *BatchInferCtx { return batchPool.Get().(*BatchInferCtx) }

// Release returns the context to the pool. The context must not be used
// afterwards.
func (bc *BatchInferCtx) Release() { batchPool.Put(bc) }

// batchOut carries the stacked extractor outputs — everything the wave's
// sample stage reads. Row segment b of pmAll / vmAll is delimited by the
// B+1 offsets pmOff / vmOff.
type batchOut struct {
	pmAll, vmAll *tensor.Tensor
	pmOff, vmOff []int
	// crossProbs[b] is environment b's stage-3 VM→PM attention of the last
	// block (m_b×n_b); nil in NoAttention mode.
	crossProbs []*tensor.Tensor
	// vmHead, when non-nil, is the step cache's maintained vm_head output
	// column (ΣnVM×1); the stage-1 head serves from it instead of re-running
	// the head GEMM.
	vmHead *tensor.Tensor
	// scratch for InferSeg probability slices (self-attention probs are
	// discarded; cross probs live in crossProbs, backed by crossBuf so the
	// slice header is reused across calls).
	segProbs []*tensor.Tensor
	crossBuf []*tensor.Tensor
}

// forwardInferBatch embeds every environment in bc.fb and runs the block
// stack over the stacked rows: one GEMM per row-wise stage for the whole
// wave.
func (m *Model) forwardInferBatch(bc *BatchInferCtx) *batchOut {
	ar := &bc.arena
	fb := &bc.fb
	nEnv := fb.Len()
	totPM, totVM := fb.PMOff[nEnv], fb.VMOff[nEnv]
	pmAll := m.pmEmbed.Infer(ar, ar.FromFlat(totPM, sim.PMFeatDim, fb.FlatPM()))
	vmAll := m.vmEmbed.Infer(ar, ar.FromFlat(totVM, sim.VMFeatDim, fb.FlatVM()))
	var groups [][]int
	if m.Cfg.Extractor == SparseAttention {
		bc.gb.reset(totPM + totVM)
		for b := 0; b < nEnv; b++ {
			bc.gb.add(fb.Envs[b].HostPM, fb.PMOff[b+1]-fb.PMOff[b], fb.PMOff[b]+fb.VMOff[b])
		}
		groups = bc.gb.groups
	}
	return m.forwardBlocks(bc, pmAll, vmAll, fb.PMOff, fb.VMOff, groups, false)
}

// forwardBlocks runs the block stack from given stacked PM/VM embeddings
// onward and fills bc.out. The step cache enters here with cached (and
// possibly row-patched) embeddings; skipFirstTree skips block 0's tree
// stage, which the cache has already patched, handing in pmAll/vmAll as
// views of its cached post-tree residual. Every stage treats its inputs
// read-only, so they may be persistent cache tensors.
func (m *Model) forwardBlocks(bc *BatchInferCtx, pmAll, vmAll *tensor.Tensor, pmOff, vmOff []int, groups [][]int, skipFirstTree bool) *batchOut {
	ar := &bc.arena
	nEnv := len(pmOff) - 1
	totPM, totVM := pmOff[nEnv], vmOff[nEnv]
	out := &bc.out
	out.pmOff, out.vmOff = pmOff, vmOff
	out.crossProbs, out.vmHead = nil, nil
	d := pmAll.Cols
	for bi, blk := range m.blocks {
		if blk.tree != nil && !(skipFirstTree && bi == 0) {
			// Stage 1: tree-local attention over the interleaved
			// [PM_b; VM_b] stacks, block-diagonal across trees AND
			// environments in one GroupedAttention pass.
			x := ar.Uninit(totPM+totVM, d)
			for b := 0; b < nEnv; b++ {
				base := pmOff[b] + vmOff[b]
				nPM := pmOff[b+1] - pmOff[b]
				ar.SetRows(x, base, ar.Rows(pmAll, pmOff[b], pmOff[b+1]))
				ar.SetRows(x, base+nPM, ar.Rows(vmAll, vmOff[b], vmOff[b+1]))
			}
			tx := blk.tree.InferTree(ar, x, groups)
			x = ar.Add(x, tx) // residual
			pmNew := ar.Uninit(totPM, d)
			vmNew := ar.Uninit(totVM, d)
			for b := 0; b < nEnv; b++ {
				base := pmOff[b] + vmOff[b]
				nPM := pmOff[b+1] - pmOff[b]
				nVM := vmOff[b+1] - vmOff[b]
				ar.SetRows(pmNew, pmOff[b], ar.Rows(x, base, base+nPM))
				ar.SetRows(vmNew, vmOff[b], ar.Rows(x, base+nPM, base+nPM+nVM))
			}
			pmAll, vmAll = pmNew, vmNew
		}
		if blk.pmSelf != nil {
			// Stage 2: intra-set self-attention, segment-diagonal per env.
			pa, sp := blk.pmSelf.InferSeg(ar, pmAll, pmAll, pmOff, pmOff, out.segProbs)
			out.segProbs = sp
			pmAll = ar.Add(pmAll, pa)
			va, sp2 := blk.vmSelf.InferSeg(ar, vmAll, vmAll, vmOff, vmOff, out.segProbs)
			out.segProbs = sp2
			vmAll = ar.Add(vmAll, va)
			// Stage 3: VM -> PM cross attention.
			ca, cp := blk.cross.InferSeg(ar, vmAll, pmAll, vmOff, pmOff, out.crossBuf)
			out.crossBuf = cp
			out.crossProbs = cp
			vmAll = ar.Add(vmAll, ca)
		}
		// Dense layers + layer norm: one stacked GEMM chain for the batch.
		pmAll = blk.pmLN.Infer(ar, ar.Add(pmAll, blk.pmFF.Infer(ar, pmAll)))
		vmAll = blk.vmLN.Infer(ar, ar.Add(vmAll, blk.vmFF.Infer(ar, vmAll)))
	}
	out.pmAll, out.vmAll = pmAll, vmAll
	return out
}

// vmLogitsBatch returns the totVM×1 stage-1 logit column of every
// environment — the step cache's maintained column when it has one, else
// one stacked head GEMM. Per-environment rows come from vmLogitsRow.
func (m *Model) vmLogitsBatch(bc *BatchInferCtx, out *batchOut) *tensor.Tensor {
	if out.vmHead != nil {
		return out.vmHead
	}
	return m.vmHead.Infer(&bc.arena, out.vmAll)
}

// vmLogitsRow extracts environment b's 1×M stage-1 logit row from the
// stacked column, applying the optional legality mask.
func (m *Model) vmLogitsRow(bc *BatchInferCtx, col *tensor.Tensor, b int, mask []bool) *tensor.Tensor {
	ar := &bc.arena
	row := ar.Transpose(ar.Rows(col, bc.out.vmOff[b], bc.out.vmOff[b+1]))
	if mask != nil {
		row = ar.MaskedFill(row, mask, -1e9)
	}
	return row
}

// pmMergeBatch assembles the stage-2 merge input for every environment —
// [pmE, broadcast selected-VM embedding, stage-3 attention score] — and runs
// pmMerge as one stacked GEMM. vmSel[b] is environment b's selected VM (a
// negative selection leaves that environment's rows zero; its output is
// unused). Returns the totPM×1 logit column.
func (m *Model) pmMergeBatch(bc *BatchInferCtx, out *batchOut, vmSel []int) *tensor.Tensor {
	ar := &bc.arena
	nEnv := len(out.pmOff) - 1
	d := out.pmAll.Cols
	w := 2*d + 1
	merged := ar.Tensor(out.pmOff[nEnv], w)
	for b := 0; b < nEnv; b++ {
		vm := vmSel[b]
		if vm < 0 {
			continue
		}
		sel := out.vmAll.Data[(out.vmOff[b]+vm)*d : (out.vmOff[b]+vm+1)*d]
		var crossRow []float64
		if out.crossProbs != nil {
			cp := out.crossProbs[b]
			crossRow = cp.Data[vm*cp.Cols : (vm+1)*cp.Cols]
		}
		for i := out.pmOff[b]; i < out.pmOff[b+1]; i++ {
			dst := merged.Data[i*w : (i+1)*w]
			copy(dst[:d], out.pmAll.Data[i*d:(i+1)*d])
			copy(dst[d:2*d], sel)
			if crossRow != nil {
				dst[2*d] = crossRow[i-out.pmOff[b]]
			}
		}
	}
	return m.pmMerge.Infer(ar, merged)
}

// pmLogitsRow extracts environment b's 1×N stage-2 logit row from the merged
// column, applying the optional legality mask.
func (m *Model) pmLogitsRow(bc *BatchInferCtx, col *tensor.Tensor, b int, mask []bool) *tensor.Tensor {
	ar := &bc.arena
	row := ar.Transpose(ar.Rows(col, bc.out.pmOff[b], bc.out.pmOff[b+1]))
	if mask != nil {
		row = ar.MaskedFill(row, mask, -1e9)
	}
	return row
}

// jointLogitsBatchRow computes environment b's FullMask joint logits
// (1×(M·N)) from the stacked embeddings.
func (m *Model) jointLogitsBatchRow(bc *BatchInferCtx, out *batchOut, b int, mask []bool) *tensor.Tensor {
	ar := &bc.arena
	vmE := ar.Rows(out.vmAll, out.vmOff[b], out.vmOff[b+1])
	pmE := ar.Rows(out.pmAll, out.pmOff[b], out.pmOff[b+1])
	scores := ar.MatMulT(vmE, pmE)
	flat := ar.Reshape(scores, 1, scores.Rows*scores.Cols)
	if mask != nil {
		flat = ar.MaskedFill(flat, mask, -1e9)
	}
	return flat
}

// valueInferBatch runs the critic over every environment's pooled embeddings
// as one B×2d GEMM, filling dst with per-environment values.
func (m *Model) valueInferBatch(bc *BatchInferCtx, out *batchOut, dst []float64) []float64 {
	ar := &bc.arena
	nEnv := len(out.pmOff) - 1
	d := out.pmAll.Cols
	pooled := ar.Uninit(nEnv, 2*d)
	for b := 0; b < nEnv; b++ {
		pm := ar.MeanRows(ar.Rows(out.pmAll, out.pmOff[b], out.pmOff[b+1]))
		vm := ar.MeanRows(ar.Rows(out.vmAll, out.vmOff[b], out.vmOff[b+1]))
		copy(pooled.Data[b*2*d:b*2*d+d], pm.Data)
		copy(pooled.Data[b*2*d+d:(b+1)*2*d], vm.Data)
	}
	col := m.critic.Infer(ar, pooled)
	dst = resizeFloats(dst, nEnv)
	copy(dst, col.Data)
	return dst
}

// optAt resolves the per-environment sample options: a single-element slice
// broadcasts to every environment.
func optAt(opts []SampleOpts, b int) SampleOpts {
	if len(opts) == 1 {
		return opts[0]
	}
	return opts[b]
}

// extractBatch refreshes the batched features for the environments' current
// clusters.
func (bc *BatchInferCtx) extractBatch(envs []*sim.Env) {
	if cap(bc.clusters) < len(envs) {
		bc.clusters = make([]*cluster.Cluster, len(envs))
	} else {
		bc.clusters = bc.clusters[:len(envs)]
	}
	for i, e := range envs {
		bc.clusters[i] = e.Cluster()
	}
	bc.fb.Extract(bc.clusters)
}

// InferBatch selects one action per environment through a single batched
// forward pass. Environment b's decision is bit-identical to what Infer (a
// wave of one) would pick given the same rng stream: no row's forward
// depends on the other rows, and sampling consumes each environment's rng
// in the same order. opts is per-environment (a
// single element broadcasts). Environments with no migratable VM get
// ErrNoMigratableVM in their BatchAction. acts is an optional reusable
// result slice. Zero heap allocations at a stable batch shape.
//
// InferBatch is a homogeneous WaveInfer wave; see Model.ServeWave for the
// general mixed-kind form the serving scheduler drives.
func (m *Model) InferBatch(bc *BatchInferCtx, envs []*sim.Env, rngs []*rand.Rand, opts []SampleOpts, acts []BatchAction) []BatchAction {
	if cap(acts) < len(envs) {
		acts = make([]BatchAction, len(envs))
	} else {
		acts = acts[:len(envs)]
	}
	bc.reqs = resizeReqs(bc.reqs, len(envs))
	for i, env := range envs {
		bc.reqs[i] = WaveReq{Kind: WaveInfer, Env: env, Rng: rngs[i], Opts: optAt(opts, i)}
	}
	bc.waveRes = m.ServeWave(bc, bc.reqs, bc.waveRes)
	for i := range envs {
		acts[i] = BatchAction{VM: bc.waveRes[i].VM, PM: bc.waveRes[i].PM, Err: bc.waveRes[i].Err}
	}
	return acts
}

// ActBatch is the training-path InferBatch: one batched forward pass, one
// Decision per environment with the retained state snapshot, log-prob, and
// critic value PPO stores. Per environment the decision is bit-identical to
// Act given the same rng stream. The returned decisions own their storage
// (state snapshots survive the context's next wave); the per-decision
// allocations are inherent to retention.
func (m *Model) ActBatch(bc *BatchInferCtx, envs []*sim.Env, rngs []*rand.Rand, opts []SampleOpts) []*Decision {
	decs := make([]*Decision, len(envs))
	if len(envs) == 0 {
		return decs
	}
	bc.reqs = resizeReqs(bc.reqs, len(envs))
	for i, env := range envs {
		bc.reqs[i] = WaveReq{Kind: WaveAct, Env: env, Rng: rngs[i], Opts: optAt(opts, i)}
	}
	bc.waveRes = m.ServeWave(bc, bc.reqs, bc.waveRes)
	for i := range envs {
		decs[i] = bc.waveRes[i].Dec
	}
	return decs
}

// ValuesBatch returns the critic value of each cluster state through one
// batched forward pass — the expansion primitive search-based consumers
// (MCTS value priors) use to score candidate children in a single GEMM
// instead of one forward per child. dst is an optional reusable slice.
func (m *Model) ValuesBatch(bc *BatchInferCtx, cs []*cluster.Cluster, dst []float64) []float64 {
	if len(cs) == 0 {
		return dst[:0]
	}
	bc.reqs = resizeReqs(bc.reqs, len(cs))
	for i, c := range cs {
		bc.reqs[i] = WaveReq{Kind: WaveValue, State: c}
	}
	bc.waveRes = m.ServeWave(bc, bc.reqs, bc.waveRes)
	dst = resizeFloats(dst, len(cs))
	for i := range cs {
		dst[i] = bc.waveRes[i].Value
	}
	return dst
}

// RolloutBatch rolls every environment to completion in lock-step waves: one
// batched forward per wave selects an action for every still-running
// environment, then each environment steps. Environments drop out of the
// wave as they finish (ragged tail), so the batch narrows rather than
// padding. Stops early when ctx expires — every environment keeps its
// best-so-far plan, matching the sequential Agent contract. opts and rngs
// are per-environment (a single-element opts broadcasts). earlyStop mirrors
// Agent.EarlyStop. Returns the first step error encountered (other
// environments still finish).
func (m *Model) RolloutBatch(ctx context.Context, bc *BatchInferCtx, envs []*sim.Env, rngs []*rand.Rand, opts []SampleOpts, earlyStop bool) error {
	bc.active = bc.active[:0]
	for i, env := range envs {
		if !env.Done() {
			bc.active = append(bc.active, i)
		}
	}
	var firstErr error
	for len(bc.active) > 0 && ctx.Err() == nil {
		bc.waveEnvs = bc.waveEnvs[:0]
		bc.waveRngs = bc.waveRngs[:0]
		bc.waveOpts = bc.waveOpts[:0]
		for _, i := range bc.active {
			bc.waveEnvs = append(bc.waveEnvs, envs[i])
			bc.waveRngs = append(bc.waveRngs, rngs[i])
			bc.waveOpts = append(bc.waveOpts, optAt(opts, i))
		}
		bc.acts = m.InferBatch(bc, bc.waveEnvs, bc.waveRngs, bc.waveOpts, bc.acts)
		n := 0
		for k, i := range bc.active {
			env := envs[i]
			act := bc.acts[k]
			if act.Err != nil {
				continue // no migratable VM: episode effectively over
			}
			if m.Cfg.Action == Penalty {
				if _, _, err := env.PenaltyStep(act.VM, act.PM, -5); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
			} else {
				if earlyStop {
					if g, ok := sim.MoveGain(env.Cluster(), env.Objective(), act.VM, act.PM); ok && g < 0 {
						continue
					}
				}
				if _, _, err := env.Step(act.VM, act.PM); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
			}
			if !env.Done() {
				bc.active[n] = i
				n++
			}
		}
		bc.active = bc.active[:n]
	}
	return firstErr
}

// resizeInts returns dst with length n, reallocating only when needed.
func resizeInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// resizeBools returns dst with length n, reallocating only when needed.
func resizeBools(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}

// resizeReqs returns dst with length n, reallocating only when needed.
func resizeReqs(dst []WaveReq, n int) []WaveReq {
	if cap(dst) < n {
		return make([]WaveReq, n)
	}
	return dst[:n]
}
