package heuristics

import (
	"math"
	"slices"
	"sort"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
)

// improveEps is the gain a move must exceed to count as improving.
const improveEps = 1e-12

// ranking is an ordered set of ids keyed by a gain: groups of equal gain in
// descending gain order, ids ascending within a group. That is the order
// HA's scans visit candidates in, so walking a ranking front to back
// reproduces their first-wins tie-breaks.
type ranking struct {
	groups []rankGroup
	gain   []float64 // current key of each member id
	in     []bool
}

type rankGroup struct {
	gain float64
	ids  []int // ascending
}

// newRanking ranks the ids with in[id] by gain[id]; it takes ownership of
// both slices. Groups are windows of one sorted id slice, capped so that a
// later insert into one group reallocates it instead of overwriting the
// next.
func newRanking(gain []float64, in []bool) *ranking {
	var ids []int
	for id, ok := range in {
		if ok {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		switch {
		case gain[a] > gain[b]:
			return -1
		case gain[a] < gain[b]:
			return 1
		default:
			return a - b
		}
	})
	r := &ranking{gain: gain, in: in}
	for lo := 0; lo < len(ids); {
		hi := lo + 1
		for hi < len(ids) && gain[ids[hi]] == gain[ids[lo]] {
			hi++
		}
		r.groups = append(r.groups, rankGroup{gain: gain[ids[lo]], ids: ids[lo:hi:hi]})
		lo = hi
	}
	return r
}

// group returns the index of the group with gain g, or where it would be
// inserted, and whether it exists.
func (r *ranking) group(g float64) (int, bool) {
	i := sort.Search(len(r.groups), func(i int) bool { return r.groups[i].gain <= g })
	return i, i < len(r.groups) && r.groups[i].gain == g
}

// set inserts id with gain g, moving it when it is already a member.
func (r *ranking) set(id int, g float64) {
	if r.in[id] {
		if r.gain[id] == g {
			return
		}
		r.remove(id)
	}
	i, ok := r.group(g)
	if !ok {
		r.groups = slices.Insert(r.groups, i, rankGroup{gain: g})
	}
	ids := r.groups[i].ids
	j, _ := slices.BinarySearch(ids, id)
	r.groups[i].ids = slices.Insert(ids, j, id)
	r.gain[id], r.in[id] = g, true
}

// remove drops id when it is a member.
func (r *ranking) remove(id int) {
	if !r.in[id] {
		return
	}
	i, _ := r.group(r.gain[id])
	ids := r.groups[i].ids
	j, _ := slices.BinarySearch(ids, id)
	if ids = slices.Delete(ids, j, j+1); len(ids) == 0 {
		r.groups = slices.Delete(r.groups, i, i+1)
	} else {
		r.groups[i].ids = ids
	}
	r.in[id] = false
}

// top returns the highest gain, or -Inf when the ranking is empty.
func (r *ranking) top() float64 {
	if len(r.groups) == 0 {
		return math.Inf(-1)
	}
	return r.groups[0].gain
}

// planner holds what HA and SwapHA scan, built once per solve and patched
// after each step: the candidate ranking (placed VMs by removal gain) and,
// per distinct VM shape, an insertion table ranking every Up PM the shape
// fits on by its insert gain. A removal gain depends only on the VM's shape
// and its source PM, an insert gain only on the shape and the destination
// PM, so a step invalidates the entries of the PMs it touched and nothing
// else. Anti-affinity and "not the VM's own PM" are per VM and are checked
// with CanHost while walking a table.
type planner struct {
	env     *sim.Env
	obj     sim.Objective
	cands   *ranking
	shapeOf []int // placed vm -> index into shapes/tables
	shapes  []cluster.Shape
	tables  []*ranking
}

func newPlanner(env *sim.Env) *planner {
	c := env.Cluster()
	p := &planner{env: env, obj: env.Objective(), shapeOf: make([]int, len(c.VMs))}
	gain, in := make([]float64, len(c.VMs)), make([]bool, len(c.VMs))
	index := map[cluster.Shape]int{}
	for vm := range c.VMs {
		g, placed := sim.RemovalGain(c, p.obj, vm)
		if !placed {
			continue // never a candidate: it has no source to leave
		}
		s := c.VMs[vm].Shape()
		i, ok := index[s]
		if !ok {
			i = len(p.shapes)
			index[s] = i
			p.shapes = append(p.shapes, s)
		}
		p.shapeOf[vm] = i
		gain[vm], in[vm] = g, true
	}
	p.cands = newRanking(gain, in)
	for _, s := range p.shapes {
		gain, in := make([]float64, len(c.PMs)), make([]bool, len(c.PMs))
		for pm := range c.PMs {
			gain[pm], in[pm] = p.insertGain(pm, s)
		}
		p.tables = append(p.tables, newRanking(gain, in))
	}
	return p
}

// insertGain is the insertion-table entry of shape s on PM pm: present on
// Up PMs the shape fits.
func (p *planner) insertGain(pm int, s cluster.Shape) (float64, bool) {
	host := &p.env.Cluster().PMs[pm]
	if host.Health != cluster.Up {
		return 0, false
	}
	return p.obj.ShapeInsertGain(host, s)
}

// patchPM refreshes PM pm's entry in every insertion table.
func (p *planner) patchPM(pm int) {
	for i, s := range p.shapes {
		if g, ok := p.insertGain(pm, s); ok {
			p.tables[i].set(pm, g)
		} else {
			p.tables[i].remove(pm)
		}
	}
}

// touch patches the tables after a step changed the given PMs: their
// insertion entries and the removal gains of the VMs they now host.
func (p *planner) touch(pms ...int) {
	c := p.env.Cluster()
	for _, pm := range pms {
		p.patchPM(pm)
		for _, vm := range c.PMs[pm].VMs {
			g, _ := sim.RemovalGain(c, p.obj, vm)
			p.cands.set(vm, g)
		}
	}
}

// maxInsert bounds every insert gain: the best entry over all tables.
func (p *planner) maxInsert() float64 {
	best := math.Inf(-1)
	for _, t := range p.tables {
		best = max(best, t.top())
	}
	return best
}

// bestDest returns the legal destination maximizing rg + insert gain for
// vm, ties to the lowest PM id, or -1 when no PM can host it. Float addition
// may round different insert gains to one total, so groups after the first
// legal one are still walked while their total ties.
func (p *planner) bestDest(vm int, rg float64) (pm int, total float64) {
	c := p.env.Cluster()
	pm = -1
	for _, g := range p.tables[p.shapeOf[vm]].groups {
		t := rg + g.gain
		if pm >= 0 && t != total {
			break
		}
		for _, id := range g.ids {
			if pm >= 0 && id > pm {
				break
			}
			if c.CanHost(vm, id) {
				pm, total = id, t
				break
			}
		}
	}
	return pm, total
}

// firstImproving returns HA's move: the first candidate in ranking order
// whose best destination improves the objective. Candidates are walked only
// while their removal gain plus the best insert gain anywhere could still
// improve; float addition is monotone, so the bound is exact.
func (p *planner) firstImproving() (sim.Action, bool) {
	bound := p.maxInsert()
	for _, g := range p.cands.groups {
		if g.gain+bound <= improveEps {
			break
		}
		for _, vm := range g.ids {
			if pm, total := p.bestDest(vm, g.gain); pm >= 0 && total > improveEps {
				return sim.Action{VM: vm, PM: pm, Gain: total}, true
			}
		}
	}
	return sim.Action{}, false
}

// bestMove returns the improving migration with the highest gain, ties to
// the lowest VM then PM — sim.TopActions' first entry, when it improves.
func (p *planner) bestMove() (best sim.Action, ok bool) {
	bound := p.maxInsert()
	for _, g := range p.cands.groups {
		if t := g.gain + bound; t <= improveEps || (ok && t < best.Gain) {
			break
		}
		for _, vm := range g.ids {
			pm, total := p.bestDest(vm, g.gain)
			if pm < 0 || total <= improveEps {
				continue
			}
			if !ok || total > best.Gain || (total == best.Gain && vm < best.VM) {
				best, ok = sim.Action{VM: vm, PM: pm, Gain: total}, true
			}
		}
	}
	return best, ok
}

// topCandidates appends the first k candidates in ranking order to dst.
func (p *planner) topCandidates(dst []int, k int) []int {
	for _, g := range p.cands.groups {
		for _, vm := range g.ids {
			if len(dst) == k {
				return dst
			}
			dst = append(dst, vm)
		}
	}
	return dst
}
