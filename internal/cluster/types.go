// Package cluster models a data-center cluster for VM rescheduling: physical
// machines (PMs) with two NUMA nodes each, virtual machines (VMs) placed on
// them, and the X-core fragment arithmetic of the VMR2L paper (EuroSys'25,
// Eq. 1-7). All quantities are integral: CPU in cores, memory in GB.
package cluster

import "fmt"

// NumasPerPM is the number of NUMA nodes per physical machine. The paper's
// formulation (and production clusters at ByteDance) fixes this at two.
const NumasPerPM = 2

// DefaultFragCores is the X in "X-core fragment" used throughout the paper's
// main experiments: CPU left on a NUMA that cannot host another 16-core VM.
const DefaultFragCores = 16

// VMType describes a rentable VM flavor (paper Table 1).
type VMType struct {
	Name string
	// CPU and Mem are the total requested resources across all NUMAs.
	CPU int
	Mem int
	// Numas is 1 for single-NUMA deployment, 2 for double-NUMA. Double-NUMA
	// VMs split their demand evenly across both NUMAs of one PM (Eq. 6).
	Numas int
}

// StandardTypes reproduces paper Table 1: the VM flavors used in the main
// experiments. CPU:Mem ratio is 1:2 for all standard flavors.
var StandardTypes = []VMType{
	{Name: "large", CPU: 2, Mem: 4, Numas: 1},
	{Name: "xlarge", CPU: 4, Mem: 8, Numas: 1},
	{Name: "2xlarge", CPU: 8, Mem: 16, Numas: 1},
	{Name: "4xlarge", CPU: 16, Mem: 32, Numas: 1},
	{Name: "8xlarge", CPU: 32, Mem: 64, Numas: 2},
	{Name: "16xlarge", CPU: 64, Mem: 128, Numas: 2},
	{Name: "22xlarge", CPU: 88, Mem: 176, Numas: 2},
}

// TypeByName returns the standard VM type with the given name.
func TypeByName(name string) (VMType, bool) {
	for _, t := range StandardTypes {
		if t.Name == name {
			return t, true
		}
	}
	return VMType{}, false
}

// MemoryIntensive returns a copy of t with its memory demand scaled so that
// the CPU:Mem ratio becomes 1:ratio (paper section 5.4: up to 1:8 for
// memory-intensive workloads on the Multi-Resource dataset).
func MemoryIntensive(t VMType, ratio int) VMType {
	t.Name = fmt.Sprintf("%s-mem%d", t.Name, ratio)
	t.Mem = t.CPU * ratio
	return t
}

// VM is a virtual machine instance, possibly placed on a PM.
type VM struct {
	ID  int
	CPU int // total requested cores
	Mem int // total requested GB
	// Numas is 1 or 2 (see VMType.Numas).
	Numas int
	// PM is the hosting PM index, or -1 when unplaced.
	PM int
	// Numa is the hosting NUMA index for single-NUMA VMs; double-NUMA VMs
	// occupy both NUMAs and carry Numa == 0 by convention.
	Numa int
	// Service identifies an anti-affinity service group; VMs sharing a
	// non-negative Service must not colocate on one PM when the cluster's
	// anti-affinity constraint is enabled. -1 means unconstrained.
	Service int
}

// CPUPerNuma returns the per-NUMA CPU demand of the VM.
func (v *VM) CPUPerNuma() int { return v.CPU / v.Numas }

// MemPerNuma returns the per-NUMA memory demand of the VM.
func (v *VM) MemPerNuma() int { return v.Mem / v.Numas }

// Shape returns the placement-relevant part of the VM.
func (v *VM) Shape() Shape { return Shape{CPU: v.CPU, Mem: v.Mem, Numas: v.Numas} }

// Shape is what placement sees of a VM: its total demand and NUMA span.
// Two VMs of one shape are interchangeable for capacity, NUMA choice and
// fragment arithmetic; only identity and anti-affinity tell them apart.
type Shape struct {
	CPU   int
	Mem   int
	Numas int
}

// CPUPerNuma returns the per-NUMA CPU demand of the shape.
func (s Shape) CPUPerNuma() int { return s.CPU / s.Numas }

// MemPerNuma returns the per-NUMA memory demand of the shape.
func (s Shape) MemPerNuma() int { return s.Mem / s.Numas }

// Placed reports whether the VM is currently assigned to a PM.
func (v *VM) Placed() bool { return v.PM >= 0 }

// Numa is one NUMA node of a PM: a capacity pool for CPU and memory.
type Numa struct {
	CPUCap  int
	MemCap  int
	CPUUsed int
	MemUsed int
}

// FreeCPU returns the spare CPU cores on the NUMA.
func (n *Numa) FreeCPU() int { return n.CPUCap - n.CPUUsed }

// FreeMem returns the spare memory on the NUMA.
func (n *Numa) FreeMem() int { return n.MemCap - n.MemUsed }

// Fragment returns the X-core fragment of the NUMA: spare CPU that cannot be
// used by an additional X-core (per-NUMA) allocation, i.e. FreeCPU mod X.
func (n *Numa) Fragment(x int) int { return n.FreeCPU() % x }

// MemFragment is the memory analog of Fragment using chunk-GB granularity.
func (n *Numa) MemFragment(chunk int) int { return n.FreeMem() % chunk }

// PMType describes a physical machine flavor (per-NUMA capacities).
type PMType struct {
	Name       string
	CPUPerNuma int
	MemPerNuma int
}

// Multi-Resource dataset PM flavors (paper section 5.4): one PM type with 88
// CPUs / 256 GB and another with 128 CPUs / 364 GB (whole-PM figures; halved
// per NUMA, rounded to keep integers).
var (
	PMSmall = PMType{Name: "pm-88c256g", CPUPerNuma: 44, MemPerNuma: 128}
	PMBig   = PMType{Name: "pm-128c364g", CPUPerNuma: 64, MemPerNuma: 182}
)

// Health is the availability state of a PM. The zero value is Up, so
// clusters built before failure dynamics existed (trace loads, struct
// literals) are healthy by construction.
type Health uint8

// PM health states. Placement legality (CanHost, BestFit, plan repair)
// accepts only Up destinations; Draining and Down PMs keep hosting whatever
// is already on them until it is evacuated.
const (
	// Up is the healthy state: the PM accepts new placements.
	Up Health = iota
	// Draining marks rolling maintenance: hosted VMs keep running but must
	// be migrated off, and no new VM may land.
	Draining
	// Down marks a crashed PM: hosted VMs are stranded and must be
	// evacuated before their deadline; no new VM may land.
	Down
)

// String returns the wire name of the health state.
func (h Health) String() string {
	switch h {
	case Up:
		return "up"
	case Draining:
		return "draining"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("health(%d)", uint8(h))
	}
}

// PM is a physical machine with two NUMA nodes and a set of hosted VMs.
type PM struct {
	ID    int
	Numas [NumasPerPM]Numa
	// VMs lists ids of hosted VMs in arbitrary order.
	VMs []int
	// Health is the availability state; zero value Up. Non-Up PMs refuse
	// new placements (CanHost) but retain their current VMs until
	// evacuation. Mutate through Cluster.SetHealth so future health-aware
	// aggregates stay consistent.
	Health Health
}

// Fits reports whether a VM of shape s fits on the PM by capacity alone: on
// both NUMAs for a double-NUMA shape, on at least one otherwise.
func (p *PM) Fits(s Shape) bool {
	cpu, mem := s.CPUPerNuma(), s.MemPerNuma()
	if s.Numas == 2 {
		for j := range p.Numas {
			if p.Numas[j].FreeCPU() < cpu || p.Numas[j].FreeMem() < mem {
				return false
			}
		}
		return true
	}
	for j := range p.Numas {
		if p.Numas[j].FreeCPU() >= cpu && p.Numas[j].FreeMem() >= mem {
			return true
		}
	}
	return false
}

// BestNuma returns the feasible NUMA for a single-NUMA shape that minimizes
// the post-placement X-core fragment (ties: lower index), or -1 when the
// shape fits on no NUMA. For a double-NUMA shape it returns 0 when both
// NUMAs fit, else -1.
func (p *PM) BestNuma(s Shape, x int) int {
	if s.Numas == 2 {
		if p.Fits(s) {
			return 0
		}
		return -1
	}
	cpu, mem := s.CPUPerNuma(), s.MemPerNuma()
	best, bestFrag := -1, 0
	for j := range p.Numas {
		n := &p.Numas[j]
		if n.FreeCPU() < cpu || n.FreeMem() < mem {
			continue
		}
		frag := (n.FreeCPU() - cpu) % x
		if best == -1 || frag < bestFrag {
			best, bestFrag = j, frag
		}
	}
	return best
}

// FreeCPU returns spare CPU summed over both NUMAs.
func (p *PM) FreeCPU() int {
	total := 0
	for i := range p.Numas {
		total += p.Numas[i].FreeCPU()
	}
	return total
}

// FreeMem returns spare memory summed over both NUMAs.
func (p *PM) FreeMem() int {
	total := 0
	for i := range p.Numas {
		total += p.Numas[i].FreeMem()
	}
	return total
}

// Fragment returns the X-core fragment of the PM: Σ_j (FreeCPU_j mod X).
func (p *PM) Fragment(x int) int {
	total := 0
	for i := range p.Numas {
		total += p.Numas[i].Fragment(x)
	}
	return total
}

// MemFragment returns the chunk-GB memory fragment of the PM.
func (p *PM) MemFragment(chunk int) int {
	total := 0
	for i := range p.Numas {
		total += p.Numas[i].MemFragment(chunk)
	}
	return total
}

// CPUCap returns total CPU capacity of the PM.
func (p *PM) CPUCap() int {
	total := 0
	for i := range p.Numas {
		total += p.Numas[i].CPUCap
	}
	return total
}

// CPUUsage returns the fraction of PM CPU capacity in use, in [0,1].
func (p *PM) CPUUsage() float64 {
	cap := p.CPUCap()
	if cap == 0 {
		return 0
	}
	return float64(cap-p.FreeCPU()) / float64(cap)
}
