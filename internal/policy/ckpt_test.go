package policy

import (
	"bytes"
	"math/rand"
	"testing"

	"vmr2l/internal/tensor"
)

// greedyTrace runs an 8-step greedy episode and returns the action sequence,
// the discrete fingerprint two models must share to serve interchangeably.
func greedyTrace(t *testing.T, m *Model, envSeed int64) []int {
	t.Helper()
	env := batchTestEnv(t, envSeed, 4, 16, 8)
	ic := NewInferCtx()
	rng := rand.New(rand.NewSource(1))
	var trace []int
	for step := 0; step < 8; step++ {
		vm, pm, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		trace = append(trace, vm*10000+pm)
		if _, _, err := env.Step(vm, pm); err != nil {
			t.Fatalf("step %d apply: %v", step, err)
		}
	}
	return trace
}

// forwardFingerprint runs the inference forward pass on a fixed env and
// returns the embedding tensors for bit-level comparison.
func forwardFingerprint(t *testing.T, m *Model, envSeed int64) (pmE, vmE *tensor.Tensor) {
	t.Helper()
	env := batchTestEnv(t, envSeed, 4, 16, 8)
	_, seq := waveOfOne(m, env.Cluster())
	pmE = tensor.New(seq.pmAll.Rows, seq.pmAll.Cols)
	copy(pmE.Data, seq.pmAll.Data)
	vmE = tensor.New(seq.vmAll.Rows, seq.vmAll.Cols)
	copy(vmE.Data, seq.vmAll.Data)
	return pmE, vmE
}

// TestCKPTQuantizedExportServesIdentically pins the int8 checkpoint
// contract: a quantized model exported to the portable format and loaded
// into a freshly initialized model serves bit-identically — same forward
// pass bits, same greedy actions.
func TestCKPTQuantizedExportServesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	m1 := New(cfg)
	if m1.Quantize() == 0 {
		t.Fatal("Quantize converted no layers")
	}
	var buf bytes.Buffer
	if err := m1.Params.SaveCKPT(&buf, "f64"); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 77 // different init: everything must come from the checkpoint
	m2 := New(cfg2)
	if err := m2.Params.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !m2.Quantized() {
		t.Fatal("loaded model is not quantized")
	}
	p1, v1 := forwardFingerprint(t, m1, 500)
	p2, v2 := forwardFingerprint(t, m2, 500)
	bitEqual(t, "ckpt pmE", p1, p2)
	bitEqual(t, "ckpt vmE", v1, v2)
	tr1 := greedyTrace(t, m1, 501)
	tr2 := greedyTrace(t, m2, 501)
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("greedy action %d differs after quantized export: %d vs %d", i, tr1[i], tr2[i])
		}
	}
}

// TestCKPTGobReexportSolvesIdentically pins the migration path: a legacy gob
// checkpoint loaded and re-exported in the portable format reproduces the
// original model bit for bit.
func TestCKPTGobReexportSolvesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	m1 := New(cfg)
	var gbuf bytes.Buffer
	if err := m1.Params.Save(&gbuf); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 78
	m2 := New(cfg2)
	if err := m2.Params.Load(bytes.NewReader(gbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var cbuf bytes.Buffer
	if err := m2.Params.SaveCKPT(&cbuf, "f64"); err != nil {
		t.Fatal(err)
	}
	cfg3 := cfg
	cfg3.Seed = cfg.Seed + 79
	m3 := New(cfg3)
	if err := m3.Params.Load(bytes.NewReader(cbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	p1, v1 := forwardFingerprint(t, m1, 600)
	p3, v3 := forwardFingerprint(t, m3, 600)
	bitEqual(t, "reexport pmE", p1, p3)
	bitEqual(t, "reexport vmE", v1, v3)
	tr1 := greedyTrace(t, m1, 601)
	tr3 := greedyTrace(t, m3, 601)
	for i := range tr1 {
		if tr1[i] != tr3[i] {
			t.Fatalf("greedy action %d differs after gob→ckpt re-export: %d vs %d", i, tr1[i], tr3[i])
		}
	}
}
