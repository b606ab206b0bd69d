// Package solver defines the common interface every rescheduling algorithm
// implements (heuristics, exact search, MCTS, learned policies) and a
// harness for timing them against the paper's five-second latency budget.
//
// The contract is context-first: Solve must honor ctx cancellation and
// deadline inside its search loop, stopping early and leaving the best plan
// found so far recorded in the environment (anytime semantics). This is how
// the paper's latency budget is enforced rather than merely observed — a
// plan older than ~5s is stale because dynamic VM churn erodes it (Fig. 5).
package solver

import (
	"context"
	"errors"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
)

// Meta describes a solver engine to registries and API clients.
type Meta struct {
	// Name is the short display name (also the Result.Solver label).
	Name string `json:"name"`
	// Description is a one-line summary of the algorithm.
	Description string `json:"description"`
	// Anytime reports whether interrupting Solve via ctx leaves a valid
	// partial plan in the environment (true for every iterative engine).
	Anytime bool `json:"anytime"`
	// Deterministic reports whether identical inputs (and configured seeds)
	// produce identical plans.
	Deterministic bool `json:"deterministic"`
}

// Solver computes and executes a rescheduling plan on an environment. Solve
// must leave env either done or with no further profitable action; it must
// only mutate env through Step so the migration plan is recorded. When ctx
// is cancelled or its deadline passes, Solve must return promptly with the
// environment holding the best plan found so far (nil error: an expired
// budget is an answer, not a failure).
type Solver interface {
	Meta() Meta
	Solve(ctx context.Context, env *sim.Env) error
}

// FiveSecondLimit is the paper's hard latency budget for VMR inference: a
// solution older than this is stale enough that dynamic VM churn erodes it
// (paper Fig. 5).
const FiveSecondLimit = 5 * time.Second

// Result summarizes one solver run on one mapping.
type Result struct {
	Solver    string
	InitialFR float64
	FinalFR   float64
	// Value is the configured objective (equals FR for FR16).
	InitialValue float64
	FinalValue   float64
	Steps        int
	Elapsed      time.Duration
	// TimedOut reports that the ctx *deadline* expired during the solve and
	// the plan is the anytime best-so-far rather than the engine's natural
	// fixpoint. Cancellation (ctx.Err() == context.Canceled) also cuts the
	// solve short but is not a budget expiry and is not flagged here.
	TimedOut bool
	Plan     []sim.Migration
}

// Evaluate runs the solver on a fresh environment over init under ctx and
// reports the outcome. The plan is copied out and the environment released
// for reuse.
func Evaluate(ctx context.Context, s Solver, init *cluster.Cluster, cfg sim.Config) (Result, error) {
	env := sim.New(init, cfg)
	defer env.Release()
	res := Result{
		Solver:       s.Meta().Name,
		InitialFR:    env.FragRate(),
		InitialValue: env.Value(),
	}
	start := time.Now()
	err := s.Solve(ctx, env)
	res.Elapsed = time.Since(start)
	res.TimedOut = errors.Is(ctx.Err(), context.DeadlineExceeded)
	res.FinalFR = env.FragRate()
	res.FinalValue = env.Value()
	res.Steps = env.StepsTaken()
	res.Plan = append([]sim.Migration(nil), env.Plan()...)
	return res, err
}

// Mean averages final FRs of a result slice (helper for benchmark tables).
func Mean(rs []Result) (fr float64, value float64, steps float64, elapsed time.Duration) {
	if len(rs) == 0 {
		return 0, 0, 0, 0
	}
	var t time.Duration
	for _, r := range rs {
		fr += r.FinalFR
		value += r.FinalValue
		steps += float64(r.Steps)
		t += r.Elapsed
	}
	n := float64(len(rs))
	return fr / n, value / n, steps / n, t / time.Duration(len(rs))
}
