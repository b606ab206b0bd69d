package tensor

// GraphPool recycles the float64 buffers behind autograd graph nodes. PPO
// updates build and discard thousands of near-identical small graphs per
// second; routing their Data/Grad storage through a bump pool removes the
// allocator and GC pressure (the buffers are still zeroed on reuse, which
// the ops require).
//
// A pool enters a graph through its leaves (FromRows) and spreads to every
// node computed from them: each node carries the pool its storage came
// from, and ops allocate from their output's pool. Tensors built from no
// pooled input — parameters, New, Clone — use the heap. A pool is owned by
// one goroutine (a trainer); never hold a graph across Reset.
type GraphPool struct {
	bufs [][]float64
	next int
}

// Reset recycles every buffer handed out since the last Reset. All tensors
// whose storage came from the pool are invalid afterwards.
func (p *GraphPool) Reset() { p.next = 0 }

// FromRows is tensor.FromRows with pooled storage: the returned leaf and
// everything computed from it allocate from p (the heap when p is nil).
func (p *GraphPool) FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		return &Tensor{Data: p.alloc(0), pool: p}
	}
	t := &Tensor{Data: p.alloc(len(rows) * len(rows[0])), Rows: len(rows), Cols: len(rows[0]), pool: p}
	for i, r := range rows {
		if len(r) != t.Cols {
			panic("tensor: ragged rows")
		}
		copy(t.Data[i*t.Cols:], r)
	}
	return t
}

// alloc returns a zeroed buffer of length n, from the heap when p is nil.
func (p *GraphPool) alloc(n int) []float64 {
	if p == nil {
		return make([]float64, n)
	}
	if p.next == len(p.bufs) {
		p.bufs = append(p.bufs, make([]float64, n))
	}
	buf := p.bufs[p.next]
	if cap(buf) < n {
		buf = make([]float64, n)
		p.bufs[p.next] = buf
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
		p.bufs[p.next] = buf
	}
	p.next++
	return buf
}
