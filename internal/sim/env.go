package sim

import (
	"errors"
	"fmt"
	"sync"

	"vmr2l/internal/cluster"
)

// Migration records one executed rescheduling action. Atomic swaps (the
// future-work extension, see SwapStep) record two consecutive entries with
// Swap set; ApplyPlan re-executes such a pair atomically.
type Migration struct {
	VM       int
	FromPM   int
	FromNuma int
	ToPM     int
	ToNuma   int
	Swap     bool
	// Forced marks an evacuation the plan repairer emitted because the VM
	// sat on a Draining/Down PM: mandatory regardless of objective, and
	// exempt from migration budgets.
	Forced bool
}

// Config parameterizes an environment.
type Config struct {
	// MNL is the migration number limit: the episode length (paper Eq. 5).
	MNL int
	// Obj is the optimization objective; zero value means FR16.
	Obj Objective
	// UseFRGoal switches to the "minimize migrations to reach an FR goal"
	// objective (paper section 5.5.1, Eq. 10-11): each step costs -1 until
	// the 16-core fragment rate reaches FRGoal, which pays +10 and ends the
	// episode early.
	UseFRGoal bool
	FRGoal    float64
}

// DefaultConfig returns an FR16 objective at the given MNL.
func DefaultConfig(mnl int) Config {
	return Config{MNL: mnl, Obj: FR16()}
}

// Env is a deterministic rescheduling episode over a cluster snapshot.
// Not safe for concurrent use; clone per goroutine via Fork.
type Env struct {
	cfg  Config
	init *cluster.Cluster
	// own is the storage New copies the initial mapping into (then init ==
	// own); a Fork shares its parent's init instead. It survives Release,
	// so a pooled Env reuses it on its next New.
	own  *cluster.Cluster
	c    *cluster.Cluster
	step int
	done bool
	plan []Migration
}

// Environment errors.
var (
	ErrDone    = errors.New("sim: episode finished")
	ErrIllegal = errors.New("sim: illegal action")
)

// New builds an environment over a snapshot of init (which is copied and
// never mutated). The environment comes from the same pool as Fork copies:
// callers that are done with it may Release it so the next New reuses its
// cluster storage.
func New(init *cluster.Cluster, cfg Config) *Env {
	if len(cfg.Obj.Terms) == 0 {
		cfg.Obj = FR16()
	}
	e := envPool.Get().(*Env)
	e.cfg = cfg
	if e.own == nil {
		e.own = init.Clone()
	} else {
		e.own.CopyFrom(init)
	}
	e.init = e.own
	e.Reset()
	return e
}

// Reset restores the initial mapping and clears the plan. The restore reuses
// the live cluster's storage (cluster.CopyFrom), so per-episode resets do
// not allocate.
func (e *Env) Reset() {
	if e.c == nil {
		e.c = e.init.Clone()
	} else {
		e.c.CopyFrom(e.init)
	}
	e.step = 0
	e.done = e.cfg.MNL <= 0
	e.plan = e.plan[:0]
}

// envPool recycles forked environments (and their cluster storage) across
// the thousands of Fork calls MCTS and risk-seeking sampling make per
// request. Entries are returned via Release.
var envPool = sync.Pool{New: func() any { return new(Env) }}

// Fork returns an independent copy of the environment mid-episode, used by
// search (MCTS) and risk-seeking sampling. The copy comes from an internal
// pool; call Release when done with it to make the fork allocation-free in
// steady state (forgetting Release is safe — the copy is then simply
// garbage-collected).
func (e *Env) Fork() *Env {
	cp := envPool.Get().(*Env)
	cp.cfg = e.cfg
	cp.init = e.init
	if cp.c == nil {
		cp.c = e.c.Clone()
	} else {
		cp.c.CopyFrom(e.c)
	}
	cp.step, cp.done = e.step, e.done
	cp.plan = append(cp.plan[:0], e.plan...)
	return cp
}

// Release returns an environment to the pool. Neither it nor its Cluster,
// Initial or Plan may be used afterwards (copy plans out first).
func (e *Env) Release() {
	e.init = nil
	envPool.Put(e)
}

// Cluster exposes the live cluster state (read-only by convention; note
// that even aggregate queries like FragRate lazily warm internal caches, so
// the cluster must stay confined to the environment's goroutine — share
// across goroutines via Fork, not by handing out this pointer).
func (e *Env) Cluster() *cluster.Cluster { return e.c }

// Initial exposes the initial mapping snapshot.
func (e *Env) Initial() *cluster.Cluster { return e.init }

// StepsTaken returns the number of migrations performed this episode.
func (e *Env) StepsTaken() int { return e.step }

// Done reports whether the episode has ended.
func (e *Env) Done() bool { return e.done }

// MNL returns the configured migration number limit.
func (e *Env) MNL() int { return e.cfg.MNL }

// Objective returns the configured objective.
func (e *Env) Objective() Objective { return e.cfg.Obj }

// Plan returns the migrations executed so far.
func (e *Env) Plan() []Migration { return e.plan }

// Value returns the current objective value (lower is better).
func (e *Env) Value() float64 { return e.cfg.Obj.Value(e.c) }

// FragRate returns the 16-core fragment rate of the current state.
func (e *Env) FragRate() float64 { return e.c.FragRate(cluster.DefaultFragCores) }

// LegalVM reports whether the VM is currently migratable: it is placed and
// at least one other PM can host it.
func (e *Env) LegalVM(vm int) bool {
	if vm < 0 || vm >= len(e.c.VMs) || !e.c.VMs[vm].Placed() {
		return false
	}
	for pm := range e.c.PMs {
		if e.c.CanHost(vm, pm) {
			return true
		}
	}
	return false
}

// VMMask returns a bitmask over VMs: true when the VM may be selected by
// stage 1. This is the mask the two-stage framework gives the VM actor.
func (e *Env) VMMask() []bool { return e.VMMaskInto(nil) }

// VMMaskInto fills (and returns) dst with the stage-1 mask, growing it only
// when the VM count changed — the allocation-free variant for inference
// loops.
func (e *Env) VMMaskInto(dst []bool) []bool {
	dst = resizeBools(dst, len(e.c.VMs))
	for vm := range e.c.VMs {
		dst[vm] = e.LegalVM(vm)
	}
	return dst
}

// PMMask returns a bitmask over PMs: true when the PM can legally host vm.
// This is the stage-2 mask applied after the VM actor picks a candidate.
func (e *Env) PMMask(vm int) []bool { return e.PMMaskInto(vm, nil) }

// PMMaskInto fills (and returns) dst with the stage-2 mask for vm.
func (e *Env) PMMaskInto(vm int, dst []bool) []bool {
	dst = resizeBools(dst, len(e.c.PMs))
	if vm < 0 || vm >= len(e.c.VMs) {
		for pm := range dst {
			dst[pm] = false
		}
		return dst
	}
	for pm := range e.c.PMs {
		dst[pm] = e.c.CanHost(vm, pm)
	}
	return dst
}

// resizeBools returns dst resized to n, reallocating only when it is too
// small.
func resizeBools(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}

// goalReached reports whether the FR-goal objective has been met.
func (e *Env) goalReached() bool {
	return e.cfg.UseFRGoal && e.FragRate() <= e.cfg.FRGoal
}

// Step migrates vm to pm and returns the dense reward of Eq. 9 (or the
// shaped Eq. 11 reward in FR-goal mode) plus whether the episode is done.
// Illegal actions return ErrIllegal without mutating state.
func (e *Env) Step(vm, pm int) (reward float64, done bool, err error) {
	if e.done {
		return 0, true, ErrDone
	}
	if vm < 0 || vm >= len(e.c.VMs) || pm < 0 || pm >= len(e.c.PMs) {
		return 0, false, fmt.Errorf("%w: (%d,%d) out of range", ErrIllegal, vm, pm)
	}
	v := &e.c.VMs[vm]
	if !v.Placed() || !e.c.CanHost(vm, pm) {
		return 0, false, fmt.Errorf("%w: vm %d -> pm %d", ErrIllegal, vm, pm)
	}
	src := v.PM
	fromNuma := v.Numa
	beforeSrc := e.cfg.Obj.pmScore(&e.c.PMs[src])
	beforeDst := e.cfg.Obj.pmScore(&e.c.PMs[pm])
	if err := e.c.Migrate(vm, pm, cluster.DefaultFragCores); err != nil {
		return 0, false, fmt.Errorf("%w: %v", ErrIllegal, err)
	}
	afterSrc := e.cfg.Obj.pmScore(&e.c.PMs[src])
	afterDst := e.cfg.Obj.pmScore(&e.c.PMs[pm])
	reward = (beforeSrc - afterSrc) + (beforeDst - afterDst)
	e.plan = append(e.plan, Migration{VM: vm, FromPM: src, FromNuma: fromNuma, ToPM: pm, ToNuma: e.c.VMs[vm].Numa})
	e.step++
	if e.cfg.UseFRGoal {
		if e.goalReached() {
			reward += 10
			e.done = true
		} else {
			reward -= 1
		}
	}
	if e.step >= e.cfg.MNL {
		e.done = true
	}
	return reward, e.done, nil
}

// ApplyPlan deploys a previously computed plan onto a (possibly changed)
// cluster, the way the central server deploys a VMR solution after inference.
// Actions that are no longer feasible — the VM exited, the destination no
// longer fits, or a constraint now fails — are skipped, exactly the paper's
// deployment semantics (footnote 7). Returns applied and skipped counts.
func ApplyPlan(c *cluster.Cluster, plan []Migration) (applied, skipped int) {
	for i := 0; i < len(plan); i++ {
		m := plan[i]
		if m.Swap && i+1 < len(plan) && plan[i+1].Swap {
			n := plan[i+1]
			i++
			if applySwap(c, m, n) {
				applied += 2
			} else {
				skipped += 2
			}
			continue
		}
		if m.VM < 0 || m.VM >= len(c.VMs) || !c.VMs[m.VM].Placed() || c.VMs[m.VM].PM != m.FromPM {
			skipped++
			continue
		}
		if err := c.Migrate(m.VM, m.ToPM, cluster.DefaultFragCores); err != nil {
			skipped++
			continue
		}
		applied++
	}
	return applied, skipped
}

// applySwap atomically re-executes a recorded swap pair on a (possibly
// changed) cluster, rolling back on any failure.
func applySwap(c *cluster.Cluster, m, n Migration) bool {
	for _, e := range []Migration{m, n} {
		if e.VM < 0 || e.VM >= len(c.VMs) || !c.VMs[e.VM].Placed() || c.VMs[e.VM].PM != e.FromPM {
			return false
		}
	}
	aNuma, bNuma := c.VMs[m.VM].Numa, c.VMs[n.VM].Numa
	rollback := func() {
		_ = c.Remove(m.VM)
		_ = c.Remove(n.VM)
		if !c.VMs[m.VM].Placed() {
			if err := c.Place(m.VM, m.FromPM, aNuma); err != nil {
				panic(fmt.Sprintf("sim: swap replay rollback: %v", err))
			}
		}
		if !c.VMs[n.VM].Placed() {
			if err := c.Place(n.VM, n.FromPM, bNuma); err != nil {
				panic(fmt.Sprintf("sim: swap replay rollback: %v", err))
			}
		}
	}
	if err := c.Remove(m.VM); err != nil {
		return false
	}
	if err := c.Remove(n.VM); err != nil {
		rollback()
		return false
	}
	na := c.BestNuma(m.VM, m.ToPM, cluster.DefaultFragCores)
	if na < 0 || c.Place(m.VM, m.ToPM, na) != nil {
		rollback()
		return false
	}
	nb := c.BestNuma(n.VM, n.ToPM, cluster.DefaultFragCores)
	if nb < 0 || c.Place(n.VM, n.ToPM, nb) != nil {
		rollback()
		return false
	}
	return true
}

// PenaltyStep supports the paper's Penalty ablation (section 5.4): when the
// proposed action is illegal, the step is consumed, the state is unchanged,
// and the fixed penalty (e.g. -5) is returned as the reward. Legal actions
// behave exactly like Step.
func (e *Env) PenaltyStep(vm, pm int, penalty float64) (reward float64, done bool, err error) {
	if e.done {
		return 0, true, ErrDone
	}
	r, done, err := e.Step(vm, pm)
	if err == nil {
		return r, done, nil
	}
	if !errors.Is(err, ErrIllegal) {
		return 0, e.done, err
	}
	e.step++
	if e.step >= e.cfg.MNL {
		e.done = true
	}
	return penalty, e.done, nil
}
