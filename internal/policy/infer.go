package policy

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"vmr2l/internal/sim"
)

// ErrNoMigratableVM is returned by Infer when stage 1 has no legal candidate.
var ErrNoMigratableVM = errors.New("policy: no migratable VM")

// InferCtx is the per-goroutine scratch state of single-environment
// inference: the wave scratch every call runs through (Infer and ActCtx are
// waves of one) plus the optional step cache (incr.go). Obtain one with
// NewInferCtx and reuse it across steps and episodes; it is not safe for
// concurrent use.
type InferCtx struct {
	wave BatchInferCtx
	// incr enables the step cache: embeddings and other row-wise stages
	// carry over from the previous Infer on the same cluster and only dirty
	// rows recompute, patched into the wave's forward. Off by default;
	// results are bit-identical either way.
	incr  bool
	feat  sim.Features // the cache's incrementally maintained features
	cache stepCache
}

// NewInferCtx returns an empty inference context.
func NewInferCtx() *InferCtx { return &InferCtx{} }

// resizeFloats returns dst with length n, reallocating only when needed.
func resizeFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// applyThresholdBuf is the single implementation of action thresholding
// (paper section 3.4): entries below the q-th quantile of the distribution
// are zeroed and the rest renormalized, respecting an optional legality
// mask. buf is an optional reusable sort buffer; the (possibly grown)
// buffer is returned so contexts can keep it. The q<=0 and all-zero-sum
// degenerate cases leave probs untouched (callers fall back to legal max).
func applyThresholdBuf(buf, probs []float64, mask []bool, q float64) []float64 {
	if q <= 0 || len(probs) == 0 {
		return buf
	}
	buf = append(buf[:0], probs...)
	sort.Float64s(buf)
	th := buf[int(q*float64(len(buf)-1))]
	sum := 0.0
	for i, p := range probs {
		if p >= th && (mask == nil || mask[i]) {
			sum += p
		}
	}
	if sum == 0 {
		return buf // degenerate: leave as-is (caller falls back to legal max)
	}
	for i, p := range probs {
		if p >= th && (mask == nil || mask[i]) {
			probs[i] = p / sum
		} else {
			probs[i] = 0
		}
	}
	return buf
}

// Infer selects an action on the environment's current state as a wave of
// one on the context's scratch: features are re-extracted, the forward runs
// on the arena, and only the chosen (vm, pm) pair is returned — zero heap
// allocations at a stable shape. With the step cache on, the forward is the
// cache's row patch of the previous step instead. Use this for rollouts and
// serving; use Act when the decision record (state snapshot, log-prob,
// value) must be retained for training.
func (m *Model) Infer(ic *InferCtx, env *sim.Env, rng *rand.Rand, opts SampleOpts) (vm, pm int, err error) {
	req := WaveReq{Kind: WaveInfer, Env: env, Rng: rng, Opts: opts}
	bc := &ic.wave
	if !ic.incr {
		r := m.serveRow(bc, req)
		return r.VM, r.PM, r.Err
	}
	bc.arena.Reset()
	bc.reqs = append(bc.reqs[:0], req)
	bc.waveRes = resetRes(bc.waveRes, 1)
	m.sampleWave(bc, m.forwardIncr(ic, env), bc.reqs, bc.waveRes)
	r := bc.waveRes[0]
	return r.VM, r.PM, r.Err
}

// logProbOf returns log(p) with the same epsilon floor the training path
// uses.
func logProbOf(p float64) float64 { return math.Log(p + 1e-300) }
