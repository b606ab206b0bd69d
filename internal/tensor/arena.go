package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Arena is the inference-mode scratch allocator: a bump allocator over a
// pool of reusable tensors. Ops invoked through an Arena never build
// autograd graphs — no parent links, no backward closures, no gradient
// buffers — and their outputs live until the next Reset, at which point the
// storage is recycled. After the first few forwards an arena reaches a
// steady state where a full policy forward performs zero heap allocations.
//
// An Arena is not safe for concurrent use; give each worker goroutine its
// own (see policy's arena pool). Tensors returned by arena ops must not be
// retained across Reset and must not be fed into autograd ops that will be
// backpropagated through.
type Arena struct {
	tensors []*Tensor
	next    int
	// views are zero-copy headers (Rows, Reshape) kept separate from the
	// storage pool: their Data fields alias other tensors and must never be
	// recycled as backing buffers.
	views []*Tensor
	vnext int
	// tslices are recycled []*Tensor headers (SegmentedAttention's
	// per-segment probability lists).
	tslices [][]*Tensor
	tsnext  int
	// qacts are recycled quantized-activation buffers (QuantizeActs).
	qacts []*QuantActs
	qnext int
}

// Reset recycles all tensors, views, tensor slices, and quantized-activation
// buffers handed out since the last Reset.
func (ar *Arena) Reset() { ar.next, ar.vnext, ar.tsnext, ar.qnext = 0, 0, 0, 0 }

// tensorSlice returns a recycled []*Tensor of length n.
func (ar *Arena) tensorSlice(n int) []*Tensor {
	if ar.tsnext == len(ar.tslices) {
		ar.tslices = append(ar.tslices, make([]*Tensor, n))
	}
	s := ar.tslices[ar.tsnext]
	if cap(s) < n {
		s = make([]*Tensor, n)
		ar.tslices[ar.tsnext] = s
	}
	ar.tsnext++
	return s[:n]
}

// view returns a reusable tensor header whose Data the caller will point at
// existing storage.
func (ar *Arena) view(data []float64, rows, cols int) *Tensor {
	if ar.vnext == len(ar.views) {
		ar.views = append(ar.views, new(Tensor))
	}
	t := ar.views[ar.vnext]
	ar.vnext++
	t.Data, t.Rows, t.Cols = data, rows, cols
	t.Grad, t.parents, t.backward, t.requiresGrad = nil, nil, nil, false
	return t
}

// Tensor returns a zeroed rows×cols tensor backed by recycled storage.
func (ar *Arena) Tensor(rows, cols int) *Tensor {
	t := ar.Uninit(rows, cols)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// Uninit returns a rows×cols tensor backed by recycled storage WITHOUT
// clearing it: recycled entries hold stale values from earlier ops. Use only
// when every element will be written before it is read — the case for most
// elementwise and copy ops, where the zeroing of Tensor is pure memclr
// overhead on the inference hot path. Accumulating consumers (MatMul,
// GroupedAttention) must use Tensor.
func (ar *Arena) Uninit(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: arena invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if ar.next == len(ar.tensors) {
		ar.tensors = append(ar.tensors, &Tensor{Data: make([]float64, n)})
	}
	t := ar.tensors[ar.next]
	ar.next++
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
	} else {
		t.Data = t.Data[:n]
	}
	t.Rows, t.Cols = rows, cols
	t.Grad, t.parents, t.backward, t.requiresGrad = nil, nil, nil, false
	return t
}

// FromFlat copies row-major data into an arena tensor.
func (ar *Arena) FromFlat(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: arena FromFlat %dx%d with %d values", rows, cols, len(data)))
	}
	t := ar.Uninit(rows, cols)
	copy(t.Data, data)
	return t
}

// MatMul returns a·b (no graph), using the shared cache-blocked kernel.
func (ar *Arena) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := ar.Tensor(a.Rows, b.Cols)
	matMulInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	return out
}

// MatMulT returns a·bᵀ (no graph).
func (ar *Arena) MatMulT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := ar.Uninit(a.Rows, b.Rows)
	matMulTInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Rows)
	return out
}

// Add returns a + b elementwise.
func (ar *Arena) Add(a, b *Tensor) *Tensor {
	sameShape(a, b, "arena Add")
	out := ar.Uninit(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddRow broadcasts a 1×n row onto every row of a.
func (ar *Arena) AddRow(a, row *Tensor) *Tensor {
	if row.Rows != 1 || row.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: arena AddRow %dx%d + %dx%d", a.Rows, a.Cols, row.Rows, row.Cols))
	}
	out := ar.Uninit(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		o := out.Data[i*a.Cols : (i+1)*a.Cols]
		x := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := range o {
			o[j] = x[j] + row.Data[j]
		}
	}
	return out
}

// AddRowInPlace adds row (1×n) onto every row of a and returns a. The
// values are identical to AddRow; a's storage is reused instead of a fresh
// tensor, halving the footprint of bias adds whose input is a single-use
// intermediate (Linear.Infer's matmul output). a must be a materialized
// arena tensor the caller owns exclusively — never a view.
func (ar *Arena) AddRowInPlace(a, row *Tensor) *Tensor {
	if row.Rows != 1 || row.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: arena AddRowInPlace %dx%d + %dx%d", a.Rows, a.Cols, row.Rows, row.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		o := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := range o {
			o[j] += row.Data[j]
		}
	}
	return a
}

// ReLUInPlace clamps a to max(a, 0) in place and returns a. Same ownership
// contract as AddRowInPlace.
func (ar *Arena) ReLUInPlace(a *Tensor) *Tensor {
	for i, v := range a.Data {
		if v <= 0 {
			a.Data[i] = 0
		}
	}
	return a
}

// Scale returns c·a.
func (ar *Arena) Scale(a *Tensor, c float64) *Tensor {
	out := ar.Uninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * c
	}
	return out
}

// ReLU returns max(a, 0).
func (ar *Arena) ReLU(a *Tensor) *Tensor {
	out := ar.Uninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Softmax applies a row-wise softmax.
func (ar *Arena) Softmax(a *Tensor) *Tensor {
	out := ar.Uninit(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		rowSoftmaxInto(a.Data[i*a.Cols:(i+1)*a.Cols], out.Data[i*a.Cols:(i+1)*a.Cols])
	}
	return out
}

// MaskedFill writes fill where mask is false.
func (ar *Arena) MaskedFill(a *Tensor, mask []bool, fill float64) *Tensor {
	if len(mask) != len(a.Data) {
		panic(fmt.Sprintf("tensor: arena MaskedFill mask %d vs data %d", len(mask), len(a.Data)))
	}
	out := ar.Uninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		if mask[i] {
			out.Data[i] = v
		} else {
			out.Data[i] = fill
		}
	}
	return out
}

// LayerNorm normalizes each row and applies the affine gamma/beta.
func (ar *Arena) LayerNorm(a, gamma, beta *Tensor, eps float64) *Tensor {
	if gamma.Cols != a.Cols || beta.Cols != a.Cols || gamma.Rows != 1 || beta.Rows != 1 {
		panic("tensor: arena LayerNorm parameter shape")
	}
	out := ar.Uninit(a.Rows, a.Cols)
	n := float64(a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		m := 0.0
		for _, v := range row {
			m += v
		}
		m /= n
		va := 0.0
		for _, v := range row {
			va += (v - m) * (v - m)
		}
		va /= n
		is := 1 / math.Sqrt(va+eps)
		o := out.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			o[j] = (v-m)*is*gamma.Data[j] + beta.Data[j]
		}
	}
	return out
}

// ConcatCols concatenates a (m×p) and b (m×q) into (m×(p+q)).
func (ar *Arena) ConcatCols(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: arena ConcatCols rows %d vs %d", a.Rows, b.Rows))
	}
	out := ar.Uninit(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*out.Cols:], a.Data[i*a.Cols:(i+1)*a.Cols])
		copy(out.Data[i*out.Cols+a.Cols:], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
	return out
}

// GroupedAttention is the inference-mode block-diagonal attention (see the
// graph op of the same name): each row attends only within its group. Groups
// are disjoint, so when the total work is large (batched forwards
// concatenate every environment's trees into one call) contiguous group
// ranges fan out across GOMAXPROCS goroutines, each with its own scratch —
// per group the arithmetic is identical either way, so the result is
// bit-identical to the serial pass.
func (ar *Arena) GroupedAttention(q, k, v *Tensor, groups [][]int, scale float64) *Tensor {
	if q.Rows != k.Rows || q.Rows != v.Rows || q.Cols != k.Cols {
		panic(fmt.Sprintf("tensor: arena GroupedAttention q %dx%d k %dx%d v %dx%d",
			q.Rows, q.Cols, k.Rows, k.Cols, v.Rows, v.Cols))
	}
	d := q.Cols
	dv := v.Cols
	out := ar.Tensor(q.Rows, dv)
	maxS := 0
	work := 0
	for _, g := range groups {
		if len(g) > maxS {
			maxS = len(g)
		}
		work += len(g) * len(g) * (d + dv)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 || work < mmParallelFlops {
		scratch := ar.Uninit(1, 2*maxS).Data
		groupedAttnRange(out, q, k, v, groups, scale, scratch)
		return out
	}
	// The parallel fan-out lives in its own function: goroutine closures
	// heap-allocate their captures at function entry even on the serial
	// path, which would cost the hot loop an allocation per call.
	groupedAttnParallel(out, q, k, v, groups, scale, ar.Uninit(workers, 2*maxS), maxS, workers)
	return out
}

// groupedAttnParallel chunks contiguous group ranges across workers; scratch
// provides 2·maxS floats per worker, allocated by the caller (the arena is
// not goroutine-safe).
func groupedAttnParallel(out, q, k, v *Tensor, groups [][]int, scale float64, scratch *Tensor, maxS, workers int) {
	var wg sync.WaitGroup
	chunk := (len(groups) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(groups))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			groupedAttnRange(out, q, k, v, groups[lo:hi], scale,
				scratch.Data[w*2*maxS:(w+1)*2*maxS])
		}(w, lo, hi)
	}
	wg.Wait()
}

// groupedAttnRange attends every row of the given groups within its group,
// writing rows of out (disjoint across groups). scratch holds 2·maxS floats.
func groupedAttnRange(out, q, k, v *Tensor, groups [][]int, scale float64, scratch []float64) {
	d, dv := q.Cols, v.Cols
	half := len(scratch) / 2
	scores, prow := scratch[:half], scratch[half:]
	for _, g := range groups {
		s := len(g)
		for _, r1 := range g {
			qr := q.Data[r1*d : (r1+1)*d]
			for b, r2 := range g {
				kr := k.Data[r2*d : (r2+1)*d]
				dp := 0.0
				for j, qv := range qr {
					dp += qv * kr[j]
				}
				scores[b] = dp * scale
			}
			rowSoftmaxInto(scores[:s], prow[:s])
			or := out.Data[r1*dv : (r1+1)*dv]
			for b, p := range prow[:s] {
				if p == 0 {
					continue
				}
				vr := v.Data[g[b]*dv : (g[b]+1)*dv]
				for j, vv := range vr {
					or[j] += p * vv
				}
			}
		}
	}
}

// SegmentedAttention computes scaled-dot-product attention independently per
// segment: output rows [qOff[b], qOff[b+1]) attend over kv rows [kvOff[b],
// kvOff[b+1]) — the block-diagonal structure of batching independent
// environments. Per segment the result is bit-identical to
// MatMul(Softmax(Scale(MatMulT(q_b, k_b), scale)), v_b); segments fan out
// across GOMAXPROCS goroutines when the total work is large (every buffer is
// allocated from the arena before the goroutines start). Returns the stacked
// output (q.Rows × v.Cols) and each segment's attention probabilities
// (m_b×n_b arena tensors, in a recycled slice valid until the next call
// handing out the same slot after Reset).
func (ar *Arena) SegmentedAttention(q, k, v *Tensor, qOff, kvOff []int, scale float64) (*Tensor, []*Tensor) {
	nSeg := len(qOff) - 1
	if len(kvOff)-1 != nSeg {
		panic("tensor: SegmentedAttention offset lengths disagree")
	}
	if q.Cols != k.Cols || k.Rows != v.Rows {
		panic(fmt.Sprintf("tensor: SegmentedAttention q %dx%d k %dx%d v %dx%d",
			q.Rows, q.Cols, k.Rows, k.Cols, v.Rows, v.Cols))
	}
	d, dv := q.Cols, v.Cols
	out := ar.Tensor(q.Rows, dv) // zeroed: matMulInto accumulates
	probs := ar.tensorSlice(nSeg)
	scoreCells, work := 0, 0
	for b := 0; b < nSeg; b++ {
		m, n := qOff[b+1]-qOff[b], kvOff[b+1]-kvOff[b]
		scoreCells += m * n
		work += m * n * (d + dv)
	}
	scoresFlat := ar.Uninit(1, scoreCells).Data
	for b := 0; b < nSeg; b++ {
		probs[b] = ar.Uninit(qOff[b+1]-qOff[b], kvOff[b+1]-kvOff[b])
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > nSeg {
		workers = nSeg
	}
	if workers <= 1 || work < mmParallelFlops {
		segAttnRange(out, q, k, v, qOff, kvOff, scale, scoresFlat, probs, 0, nSeg, 0)
		return out, probs
	}
	segAttnParallel(out, q, k, v, qOff, kvOff, scale, scoresFlat, probs, workers)
	return out, probs
}

// segAttnParallel chunks contiguous segment ranges across workers. Every
// buffer was allocated by the caller; workers write disjoint rows of out and
// disjoint probs/scores slots, so no synchronization beyond the join is
// needed and the result matches the serial pass bit for bit.
func segAttnParallel(out, q, k, v *Tensor, qOff, kvOff []int, scale float64, scoresFlat []float64, probs []*Tensor, workers int) {
	nSeg := len(qOff) - 1
	var wg sync.WaitGroup
	chunk := (nSeg + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, nSeg)
		if lo >= hi {
			break
		}
		off := 0
		for b := 0; b < lo; b++ {
			off += (qOff[b+1] - qOff[b]) * (kvOff[b+1] - kvOff[b])
		}
		wg.Add(1)
		go func(lo, hi, off int) {
			defer wg.Done()
			segAttnRange(out, q, k, v, qOff, kvOff, scale, scoresFlat, probs, lo, hi, off)
		}(lo, hi, off)
	}
	wg.Wait()
}

// segAttnRange computes segments [lo, hi): scores into scoresFlat at soff,
// softmax into probs[b], and the probability-weighted value product into
// out's segment rows.
func segAttnRange(out, q, k, v *Tensor, qOff, kvOff []int, scale float64, scoresFlat []float64, probs []*Tensor, lo, hi, soff int) {
	d, dv := q.Cols, v.Cols
	for b := lo; b < hi; b++ {
		m, n := qOff[b+1]-qOff[b], kvOff[b+1]-kvOff[b]
		if m == 0 {
			continue
		}
		sc := scoresFlat[soff : soff+m*n]
		soff += m * n
		matMulTInto(sc, q.Data[qOff[b]*d:qOff[b+1]*d], k.Data[kvOff[b]*d:kvOff[b+1]*d], m, d, n)
		for i := range sc {
			sc[i] *= scale
		}
		pr := probs[b].Data
		for r := 0; r < m; r++ {
			rowSoftmaxInto(sc[r*n:(r+1)*n], pr[r*n:(r+1)*n])
		}
		matMulInto(out.Data[qOff[b]*dv:qOff[b+1]*dv], pr, v.Data[kvOff[b]*dv:kvOff[b+1]*dv], m, n, dv)
	}
}

// SetRows copies src into dst starting at row — the scatter half of
// batch assembly (the gather half is the zero-copy Rows view).
func (ar *Arena) SetRows(dst *Tensor, row int, src *Tensor) {
	if src.Cols != dst.Cols || row < 0 || row+src.Rows > dst.Rows {
		panic(fmt.Sprintf("tensor: arena SetRows %dx%d into %dx%d at %d",
			src.Rows, src.Cols, dst.Rows, dst.Cols, row))
	}
	copy(dst.Data[row*dst.Cols:(row+src.Rows)*dst.Cols], src.Data)
}

// Rows returns the row view a[lo:hi) — a slice header into a's storage, no
// copy. Valid for inference reads only.
func (ar *Arena) Rows(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: arena Rows [%d:%d) of %d", lo, hi, a.Rows))
	}
	return ar.view(a.Data[lo*a.Cols:hi*a.Cols], hi-lo, a.Cols)
}

// GatherRows copies rows by index.
func (ar *Arena) GatherRows(a *Tensor, idx []int) *Tensor {
	out := ar.Uninit(len(idx), a.Cols)
	for r, i := range idx {
		if i < 0 || i >= a.Rows {
			panic(fmt.Sprintf("tensor: arena GatherRows index %d of %d", i, a.Rows))
		}
		copy(out.Data[r*a.Cols:(r+1)*a.Cols], a.Data[i*a.Cols:(i+1)*a.Cols])
	}
	return out
}

// Transpose returns aᵀ.
func (ar *Arena) Transpose(a *Tensor) *Tensor {
	out := ar.Uninit(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}

// MeanRows reduces (m×n) to the column mean (1×n).
func (ar *Arena) MeanRows(a *Tensor) *Tensor {
	out := ar.Tensor(1, a.Cols)
	m := float64(a.Rows)
	if m == 0 {
		m = 1
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j] += a.Data[i*a.Cols+j] / m
		}
	}
	return out
}

// Reshape returns a rows×cols view sharing a's storage (no copy, no graph).
func (ar *Arena) Reshape(a *Tensor, rows, cols int) *Tensor {
	if rows*cols != a.Rows*a.Cols {
		panic(fmt.Sprintf("tensor: arena Reshape %dx%d -> %dx%d", a.Rows, a.Cols, rows, cols))
	}
	return ar.view(a.Data, rows, cols)
}
