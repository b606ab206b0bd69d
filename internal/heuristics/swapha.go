package heuristics

import (
	"context"
	"fmt"

	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// SwapHA extends HA with the atomic two-VM swaps of the paper's future-work
// extension (section 8): when two PMs are mutually deadlocked — each VM
// would fit only after the other leaves — no sequence of single migrations
// helps, but an atomic exchange does. Each iteration takes the better of the
// best single move and the best swap among high-removal-gain VM candidates.
type SwapHA struct {
	// TopK bounds the candidate set for swap enumeration (pairs among the
	// TopK VMs with the highest removal gain). Values < 2 default to 8.
	TopK int
}

// Meta implements solver.Solver.
func (s SwapHA) Meta() solver.Meta {
	return solver.Meta{
		Name:          fmt.Sprintf("SwapHA(%d)", s.topK()),
		Description:   "HA extended with atomic two-VM swaps for deadlocked pairs (paper section 8)",
		Anytime:       true,
		Deterministic: true,
	}
}

func (s SwapHA) topK() int {
	if s.TopK < 2 {
		return 8
	}
	return s.TopK
}

// Solve executes moves and swaps until the episode ends, no action improves
// the objective, or ctx expires. The best single move and the swap
// candidates come from the same patched tables HA uses.
func (s SwapHA) Solve(ctx context.Context, env *sim.Env) error {
	pl := newPlanner(env)
	var cands []int
	for !env.Done() {
		if ctx.Err() != nil {
			return nil // budget spent: best-so-far plan is already in env
		}
		c := env.Cluster()
		bestMove, haveMove := pl.bestMove()
		// Best swap among the top-K removal-gain candidates.
		cands = pl.topCandidates(cands[:0], s.topK())
		bestA, bestB, bestSwap := -1, -1, 0.0
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if g, ok := env.SwapGain(cands[i], cands[j]); ok && g > bestSwap {
					bestA, bestB, bestSwap = cands[i], cands[j], g
				}
			}
		}
		// A swap spends two steps; prefer it only when it beats the single
		// move even after accounting for the step a second move could use.
		switch {
		case bestA >= 0 && bestSwap > improveEps && (!haveMove || bestSwap > 2*bestMove.Gain):
			pmA, pmB := c.VMs[bestA].PM, c.VMs[bestB].PM
			if _, _, err := env.SwapStep(bestA, bestB); err != nil {
				return fmt.Errorf("heuristics: SwapHA swap: %w", err)
			}
			pl.touch(pmA, pmB)
		case haveMove:
			src := c.VMs[bestMove.VM].PM
			if _, _, err := env.Step(bestMove.VM, bestMove.PM); err != nil {
				return fmt.Errorf("heuristics: SwapHA move: %w", err)
			}
			pl.touch(src, bestMove.PM)
		default:
			return nil
		}
	}
	return nil
}
