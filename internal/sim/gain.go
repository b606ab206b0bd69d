package sim

import (
	"slices"

	"vmr2l/internal/cluster"
)

// PMScore returns the weighted, rescaled fragment size of one PM under the
// objective — S_i of paper Eq. 8, generalized to multi-term objectives.
func (o Objective) PMScore(p *cluster.PM) float64 { return o.pmScore(p) }

// termFrag computes one objective term's rescaled fragment score for a
// NUMA with the given free CPU and memory.
func termFrag(t Term, freeCPU, freeMem int) float64 {
	c := float64(4 * t.Chunk)
	switch t.Res {
	case CPU:
		return t.Weight * float64(freeCPU%t.Chunk) / c
	case Mem:
		return t.Weight * float64(freeMem%t.Chunk) / c
	}
	return 0
}

// RemovalGain returns the drop in the source PM's score if vm were removed
// (positive is good) — the quantity HA's filtering stage ranks VMs by. The
// second result is false for unplaced VMs.
func RemovalGain(c *cluster.Cluster, o Objective, vm int) (float64, bool) {
	if vm < 0 || vm >= len(c.VMs) || !c.VMs[vm].Placed() {
		return 0, false
	}
	v := &c.VMs[vm]
	return o.numaDelta(&c.PMs[v.PM], v.Shape(), v.Numa, 1), true
}

// InsertGain returns the drop in PM pm's score if vm were added to it, using
// the same destination-NUMA rule as Cluster.Migrate. The second result is
// false when the VM cannot be hosted (capacity, affinity, health, or same
// PM).
func InsertGain(c *cluster.Cluster, o Objective, vm, pm int) (float64, bool) {
	if !c.CanHost(vm, pm) {
		return 0, false
	}
	return o.ShapeInsertGain(&c.PMs[pm], c.VMs[vm].Shape())
}

// ShapeInsertGain returns the drop in p's score if a VM of shape s were added
// to it on the NUMA Cluster.Migrate would choose. It sees capacity only —
// health, anti-affinity and the VM's current PM are CanHost's business — so
// every VM of one shape shares the value; the second result is false when
// the shape does not fit.
func (o Objective) ShapeInsertGain(p *cluster.PM, s cluster.Shape) (float64, bool) {
	numa := p.BestNuma(s, cluster.DefaultFragCores)
	if numa < 0 {
		return 0, false
	}
	return o.numaDelta(p, s, numa, -1), true
}

// numaDelta returns the drop in p's score when a VM of shape s is removed
// from (sign +1) or added to (sign -1) NUMA numa — both NUMAs for a
// double-NUMA shape.
func (o Objective) numaDelta(p *cluster.PM, s cluster.Shape, numa, sign int) float64 {
	cpu, mem := sign*s.CPUPerNuma(), sign*s.MemPerNuma()
	gain := 0.0
	for j := 0; j < cluster.NumasPerPM; j++ {
		if s.Numas == 1 && numa != j {
			continue
		}
		n := &p.Numas[j]
		for _, t := range o.Terms {
			before := termFrag(t, n.FreeCPU(), n.FreeMem())
			after := termFrag(t, n.FreeCPU()+cpu, n.FreeMem()+mem)
			gain += before - after
		}
	}
	return gain
}

// MoveGain returns the Eq. 9 reward of migrating vm to pm without mutating
// the cluster: RemovalGain on the source plus InsertGain on the destination.
// ok is false when the move is illegal.
func MoveGain(c *cluster.Cluster, o Objective, vm, pm int) (float64, bool) {
	rg, ok := RemovalGain(c, o, vm)
	if !ok {
		return 0, false
	}
	ig, ok := InsertGain(c, o, vm, pm)
	if !ok {
		return 0, false
	}
	return rg + ig, true
}

// BestAction returns the legal migration with the highest immediate gain
// (ties: lowest VM, then lowest PM) without allocating — the zero-alloc
// variant of TopActions(c, o, 1) used by search rollouts. ok is false when
// no legal migration exists.
func BestAction(c *cluster.Cluster, o Objective) (best Action, ok bool) {
	for vm := range c.VMs {
		rg, rok := RemovalGain(c, o, vm)
		if !rok {
			continue
		}
		for pm := range c.PMs {
			ig, iok := InsertGain(c, o, vm, pm)
			if !iok {
				continue
			}
			gain := rg + ig
			if !ok || gain > best.Gain {
				best, ok = Action{VM: vm, PM: pm, Gain: gain}, true
			}
		}
	}
	return best, ok
}

// Action is a candidate (VM, PM) migration with its immediate gain.
type Action struct {
	VM   int
	PM   int
	Gain float64
}

// TopActions enumerates legal migrations sorted by descending immediate
// gain, keeping at most k (k <= 0 means all). This is the candidate pruning
// shared by the heuristic, search, and exact solvers.
func TopActions(c *cluster.Cluster, o Objective, k int) []Action {
	return TopActionsInto(nil, c, o, k, nil)
}

// TopActionsInto is TopActions with a reusable result buffer (dst, may be
// nil) and an optional candidate filter. For bounded k the top-k set is
// maintained by insertion during the scan — O(M·N·k) and allocation-free
// once dst has capacity — instead of sorting the full candidate list, which
// is what search solvers hammer at every tree node.
func TopActionsInto(dst []Action, c *cluster.Cluster, o Objective, k int, keep func(Action) bool) []Action {
	acts := dst[:0]
	for vm := range c.VMs {
		rg, ok := RemovalGain(c, o, vm)
		if !ok {
			continue
		}
		for pm := range c.PMs {
			ig, ok := InsertGain(c, o, vm, pm)
			if !ok {
				continue
			}
			a := Action{VM: vm, PM: pm, Gain: rg + ig}
			if keep != nil && !keep(a) {
				continue
			}
			if k > 0 {
				acts = insertTopK(acts, a, k)
			} else {
				acts = append(acts, a)
			}
		}
	}
	if k <= 0 {
		sortActions(acts)
	}
	return acts
}

// actionRank orders by descending gain with (VM, PM) tie-breaks so solver
// behaviour is deterministic across runs.
func actionRank(a, b Action) int {
	switch {
	case a.Gain > b.Gain:
		return -1
	case a.Gain < b.Gain:
		return 1
	case a.VM != b.VM:
		return a.VM - b.VM
	default:
		return a.PM - b.PM
	}
}

// insertTopK inserts a into the rank-sorted slice acts, keeping at most k
// entries. The enumeration order (ascending VM, then PM) already matches the
// tie-break, so equal-gain candidates keep their deterministic order.
func insertTopK(acts []Action, a Action, k int) []Action {
	pos := len(acts)
	for pos > 0 && actionRank(a, acts[pos-1]) < 0 {
		pos--
	}
	if len(acts) < k {
		acts = append(acts, Action{})
	} else if pos >= len(acts) {
		return acts
	}
	copy(acts[pos+1:], acts[pos:len(acts)-1])
	acts[pos] = a
	return acts
}

// sortActions sorts the full candidate list (reflection-free).
func sortActions(acts []Action) {
	slices.SortFunc(acts, actionRank)
}
