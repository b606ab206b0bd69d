package policy

import (
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// Wave lifecycle. A *wave* is the package's one inference forward: every
// request contributes its environment's PM/VM feature rows to a stacked
// batch, the forward stage runs once, and the sample stage reads each
// request's result from its own row segment. Because every kernel computes
// each output row independently of how many other rows share the call, a
// request's result does not depend on which other requests share the wave.
// A wave of one is Model.Infer / Act / Probabilities; the step cache
// (incr.go) is a patch of a wave of one that skips the rows it can prove
// unchanged. That independence is also what makes continuous batching
// (internal/serve) correct: a server-side scheduler can coalesce rows from
// unrelated jobs into one wave and hand every caller exactly the answer it
// would have computed alone.
//
// ServeWave is the single wave implementation; InferBatch, ActBatch and
// ValuesBatch are thin typed wrappers that build homogeneous waves. The
// serving scheduler builds heterogeneous ones: session rollouts (WaveInfer),
// training-style decisions (WaveAct), and MCTS critic priors (WaveValue) all
// ride the same GEMMs.

// WaveKind selects what a wave row computes.
type WaveKind uint8

const (
	// WaveInfer selects one action on the request's environment — the
	// serving path (Model.Infer semantics).
	WaveInfer WaveKind = iota
	// WaveAct selects one action and retains the PPO decision record —
	// state snapshot, log-prob, critic value (Model.Act semantics).
	WaveAct
	// WaveValue scores the request's cluster state with the critic head
	// (MCTS value-prior semantics). Env is ignored; State is used.
	WaveValue
)

// WaveReq is one request row of a wave.
type WaveReq struct {
	Kind WaveKind
	// Env is the environment acted on (WaveInfer, WaveAct).
	Env *sim.Env
	// State is the cluster scored by WaveValue rows (Env takes precedence
	// when both are set).
	State *cluster.Cluster
	// Rng drives sampling for WaveInfer/WaveAct rows. Each request owns its
	// rng, so results do not depend on wave composition.
	Rng *rand.Rand
	// Opts are the sampling options for WaveInfer/WaveAct rows.
	Opts SampleOpts
}

// WaveRes is one request row's result.
type WaveRes struct {
	// VM, PM is the selected action (WaveInfer, WaveAct).
	VM, PM int
	// Err is ErrNoMigratableVM when stage 1 had no legal candidate for this
	// row's environment.
	Err error
	// Dec is the retained decision record of a WaveAct row (nil when Err is
	// set).
	Dec *Decision
	// Value is the critic value (WaveValue rows; also filled for WaveAct).
	Value float64
}

// hasKind reports whether any request row is of kind k.
func hasKind(reqs []WaveReq, k WaveKind) bool {
	for i := range reqs {
		if reqs[i].Kind == k {
			return true
		}
	}
	return false
}

// resetRes returns res with length n and every row zeroed, reallocating only
// when needed.
func resetRes(res []WaveRes, n int) []WaveRes {
	if cap(res) < n {
		return make([]WaveRes, n)
	}
	res = res[:n]
	for i := range res {
		res[i] = WaveRes{}
	}
	return res
}

// ServeWave runs one mixed-kind wave: every request's feature rows stack into
// a single batched forward pass, then the sample stage computes each row's
// result from its own segment. Per request the result does not depend on
// which other requests share the wave — a row's answer is what a wave of one
// (Infer / Act / critic value) computes given the same rng stream, the
// property the batched-inference tests pin — so rows from unrelated callers
// can share a wave safely. res is an optional reusable result slice. Rows
// of kind WaveInfer keep the wave allocation-free at a stable shape;
// WaveAct rows allocate their retained decision records.
func (m *Model) ServeWave(bc *BatchInferCtx, reqs []WaveReq, res []WaveRes) []WaveRes {
	res = resetRes(res, len(reqs))
	if len(reqs) == 0 {
		return res
	}
	bc.arena.Reset()
	if cap(bc.clusters) < len(reqs) {
		bc.clusters = make([]*cluster.Cluster, len(reqs))
	} else {
		bc.clusters = bc.clusters[:len(reqs)]
	}
	for i := range reqs {
		if reqs[i].Env != nil {
			bc.clusters[i] = reqs[i].Env.Cluster()
		} else {
			bc.clusters[i] = reqs[i].State
		}
	}
	bc.fb.Extract(bc.clusters)
	out := m.forwardInferBatch(bc)

	// The critic runs once over every row when any request needs it; rows
	// that don't read their value simply ignore it. Pure-infer waves skip
	// the critic entirely.
	if hasKind(reqs, WaveAct) || hasKind(reqs, WaveValue) {
		bc.values = m.valueInferBatch(bc, out, bc.values)
		for b := range reqs {
			switch reqs[b].Kind {
			case WaveValue:
				res[b].Value = bc.values[b]
			case WaveAct:
				res[b].Value = bc.values[b]
				res[b].Dec = &Decision{
					State: &State{Feat: bc.fb.Envs[b].Clone()},
					Value: bc.values[b],
				}
			}
		}
	}
	m.sampleWave(bc, out, reqs, res)
	return res
}

// serveRow runs req as a wave of one on bc.
func (m *Model) serveRow(bc *BatchInferCtx, req WaveReq) WaveRes {
	bc.reqs = append(bc.reqs[:0], req)
	bc.waveRes = m.ServeWave(bc, bc.reqs, bc.waveRes)
	return bc.waveRes[0]
}

// rowProbs copies the softmax of one logit row into dst and applies the
// optional quantile threshold (q > 0) under mask.
func (bc *BatchInferCtx) rowProbs(dst []float64, logits *tensor.Tensor, mask []bool, q float64) []float64 {
	dst = append(dst[:0], bc.arena.Softmax(logits).Data...)
	if q > 0 {
		bc.sortBuf = applyThresholdBuf(bc.sortBuf, dst, mask, q)
	}
	return dst
}

// sampleWave is the wave's sample stage, the one sampler per action mode.
// It reads the forward only through out and its row offsets; each WaveInfer
// or WaveAct row consumes its own rng. WaveAct rows (res[b].Dec set by the
// caller) additionally record their masks, log-prob and action.
func (m *Model) sampleWave(bc *BatchInferCtx, out *batchOut, reqs []WaveReq, res []WaveRes) {
	if m.Cfg.Action == FullMask {
		for b := range reqs {
			r := &reqs[b]
			if r.Kind == WaveValue {
				continue
			}
			mTotal := out.vmOff[b+1] - out.vmOff[b]
			nTotal := out.pmOff[b+1] - out.pmOff[b]
			bc.jointMask = resizeBools(bc.jointMask, mTotal*nTotal)
			bc.vmMask = r.Env.VMMaskInto(bc.vmMask)
			for v := 0; v < mTotal; v++ {
				joint := bc.jointMask[v*nTotal : (v+1)*nTotal]
				if !bc.vmMask[v] {
					clear(joint)
					continue
				}
				bc.pmMask = r.Env.PMMaskInto(v, bc.pmMask)
				copy(joint, bc.pmMask)
			}
			probs := bc.arena.Softmax(m.jointLogitsBatchRow(bc, out, b, bc.jointMask)).Data
			idx := sampleRow(probs, r.Rng, r.Opts.Greedy)
			res[b].VM, res[b].PM = idx/nTotal, idx%nTotal
			if dec := res[b].Dec; dec != nil {
				dec.State.JointMask = append([]bool(nil), bc.jointMask...)
				dec.LogProb = logProbOf(probs[idx])
			}
		}
		recordActions(res)
		return
	}

	// TwoStage and Penalty: stage 1 picks the VM for every row, then one
	// stacked pm_merge GEMM scores every row's PMs for stage 2. Penalty
	// samples both stages unmasked and unthresholded.
	masked := m.Cfg.Action == TwoStage
	bc.vmSel = resizeInts(bc.vmSel, len(reqs))
	bc.vmLogp = resizeFloats(bc.vmLogp, len(reqs))
	vmCol := m.vmLogitsBatch(bc, out)
	for b := range reqs {
		r := &reqs[b]
		bc.vmSel[b] = -1
		if r.Kind == WaveValue {
			continue
		}
		var mask []bool
		q := 0.0
		if masked {
			bc.vmMask = r.Env.VMMaskInto(bc.vmMask)
			if !anyTrue(bc.vmMask) {
				res[b].Err, res[b].Dec = ErrNoMigratableVM, nil
				continue
			}
			mask, q = bc.vmMask, r.Opts.VMQuantile
		}
		bc.vmProbs = bc.rowProbs(bc.vmProbs, m.vmLogitsRow(bc, vmCol, b, mask), mask, q)
		vm := sampleLegal(bc.vmProbs, mask, r.Rng, r.Opts.Greedy)
		bc.vmSel[b], res[b].VM = vm, vm
		bc.vmLogp[b] = logProbOf(bc.vmProbs[vm])
		if dec := res[b].Dec; dec != nil && masked {
			dec.State.VMMask = append([]bool(nil), mask...)
		}
	}
	pmCol := m.pmMergeBatch(bc, out, bc.vmSel)
	for b := range reqs {
		r := &reqs[b]
		vm := bc.vmSel[b]
		if vm < 0 {
			continue
		}
		var mask []bool
		q := 0.0
		if masked {
			bc.pmMask = r.Env.PMMaskInto(vm, bc.pmMask)
			mask, q = bc.pmMask, r.Opts.PMQuantile
		}
		bc.pmProbs = bc.rowProbs(bc.pmProbs, m.pmLogitsRow(bc, pmCol, b, mask), mask, q)
		pm := sampleLegal(bc.pmProbs, mask, r.Rng, r.Opts.Greedy)
		if dec := res[b].Dec; dec != nil {
			dec.LogProb = bc.vmLogp[b] + logProbOf(bc.pmProbs[pm])
			if masked {
				dec.State.PMMask = append([]bool(nil), mask...)
			}
		}
		if masked && m.Cfg.PMSubset > 0 {
			// Decima-style: resample the PM from a random legal subset,
			// overriding the learned stage-2 choice.
			pm = subsetPM(mask, m.Cfg.PMSubset, bc.pmProbs, r.Rng)
		}
		res[b].PM = pm
	}
	recordActions(res)
}

// recordActions copies every WaveAct row's chosen action into its decision
// record.
func recordActions(res []WaveRes) {
	for i := range res {
		if dec := res[i].Dec; dec != nil {
			dec.State.VM, dec.State.PM = res[i].VM, res[i].PM
		}
	}
}
