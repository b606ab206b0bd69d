// Package tensor is a minimal dense float64 tensor library with tape-based
// reverse-mode automatic differentiation — the substrate that replaces
// PyTorch in this reproduction (see DESIGN.md). It supports exactly the
// operations the VMR2L policy networks and PPO need: 2-D matrix algebra,
// row-wise softmax/log-softmax with additive masks, layer norm, elementwise
// nonlinearities, gathers, and reductions.
//
// Gradients flow through a dynamically built graph: every op records its
// parents and a backward closure; Backward() runs a topological sort and
// accumulates gradients into .Grad. Tensors are 2-D (rows × cols); vectors
// are 1×n or n×1 as convenient.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a 2-D matrix with optional gradient tracking.
type Tensor struct {
	Data []float64
	Grad []float64
	Rows int
	Cols int

	requiresGrad bool
	parents      []*Tensor
	backward     func()
	// pool is where this node's storage came from and where its gradient
	// and its children's storage come from; nil means the heap.
	pool *GraphPool
}

// New allocates a zero rows×cols tensor on the heap.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// FromSlice wraps row-major data (copied) into a rows×cols tensor.
func FromSlice(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d with %d values", rows, cols, len(data)))
	}
	t := New(rows, cols)
	copy(t.Data, data)
	return t
}

// FromRows builds a tensor from equal-length rows.
func FromRows(rows [][]float64) *Tensor { return (*GraphPool)(nil).FromRows(rows) }

// Randn fills a new tensor with Gaussian values scaled by std.
func Randn(rng *rand.Rand, rows, cols int, std float64) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Param marks the tensor as a trainable parameter (gradients accumulate).
func (t *Tensor) Param() *Tensor {
	t.requiresGrad = true
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	return t
}

// RequiresGrad reports whether the tensor participates in autodiff.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Scalar returns the single element of a 1×1 tensor.
func (t *Tensor) Scalar() float64 {
	if t.Rows*t.Cols != 1 {
		panic(fmt.Sprintf("tensor: Scalar on %dx%d", t.Rows, t.Cols))
	}
	return t.Data[0]
}

// Clone returns a detached copy (no graph history, not a parameter).
func (t *Tensor) Clone() *Tensor {
	c := New(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// child builds a result tensor wired into the graph when any parent
// requires grad. Its storage comes from the first parent's graph pool, the
// heap when no parent has one (see GraphPool).
func child(rows, cols int, parents ...*Tensor) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	out := &Tensor{Rows: rows, Cols: cols}
	for _, p := range parents {
		out.requiresGrad = out.requiresGrad || p.requiresGrad
		if out.pool == nil {
			out.pool = p.pool
		}
	}
	out.Data = out.pool.alloc(rows * cols)
	if out.requiresGrad {
		out.Grad = out.pool.alloc(len(out.Data))
		out.parents = parents
	}
	return out
}

// ensureGrad lazily allocates the gradient buffer of a graph-internal node.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = t.pool.alloc(len(t.Data))
	}
}

// Backward seeds the output gradient with 1 (the tensor must be 1×1) and
// back-propagates through the recorded graph.
func (t *Tensor) Backward() {
	if t.Rows*t.Cols != 1 {
		panic("tensor: Backward on non-scalar; reduce first")
	}
	if !t.requiresGrad {
		return
	}
	t.ensureGrad()
	t.Grad[0] = 1
	// Topological order via DFS.
	var order []*Tensor
	seen := map[*Tensor]bool{}
	var visit func(*Tensor)
	visit = func(n *Tensor) {
		if seen[n] || !n.requiresGrad {
			return
		}
		seen[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(t)
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Detach returns a view of the data with no graph history (shares storage).
func (t *Tensor) Detach() *Tensor {
	return &Tensor{Data: t.Data, Rows: t.Rows, Cols: t.Cols}
}

// checkFinite panics on NaN/Inf — used by tests and training assertions.
func (t *Tensor) CheckFinite(label string) {
	for _, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("tensor: non-finite value in %s", label))
		}
	}
}
