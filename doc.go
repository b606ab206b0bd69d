// Package vmr2l is a from-scratch Go reproduction of "Towards VM
// Rescheduling Optimization Through Deep Reinforcement Learning"
// (EuroSys 2025): a cluster simulator, a Gym-style rescheduling
// environment, a pure-Go deep-RL stack, the VMR2L two-stage agent with
// sparse tree-local attention and risk-seeking evaluation, all baseline
// families from the paper's evaluation, and a benchmark harness that
// regenerates every table and figure.
//
// Start with README.md (layout, the context-aware solver contract, and the
// v2 HTTP API with its Go client). The public entry points live under cmd/
// and examples/; the library packages are in internal/.
//
// # Live-cluster serving
//
// The deployment loop of paper Fig. 5 is first-class: internal/scenario
// declares named workload scenarios (trace profile + dynamics shape +
// constraints + objective), internal/sched.Dynamics evolves a live cluster
// through Poisson arrival/exit churn on a pull-based minute clock, and the
// service hosts cluster sessions (POST /v2/clusters) whose reschedule jobs
// solve on snapshots and then validate/repair their plans against the
// drifted live state (internal/solver.ValidatePlan/RepairPlan). See
// README.md's "Live-cluster serving & scenarios".
//
// # Scaling out
//
// internal/shard is the scale-out solving layer for fleet-sized inputs
// (the hyperscale scenarios: 10k PMs, ~90k VMs): shard.Partition splits
// the PMs into balanced parts while keeping every anti-affinity service
// group inside one shard (groups larger than a shard's capacity are split
// — safe, since anti-affinity is per-PM and every VM on a shard's PMs is
// in its sub-cluster, but counted as oversized_groups); cluster.ExtractSub
// produces independent sub-clusters with id remap tables; shard.Solve
// races a portfolio of engines per shard in parallel under one shared
// deadline, keeps each shard's best anytime plan, and merges the remapped
// plans through solver.ValidatePlan + RepairPlanObjective against the full
// live cluster, so the returned plan always applies cleanly. The
// shard.Portfolio and shard.Solver wrappers register like any engine; the
// service accepts "shards"/"portfolio" on every v2 job and reports
// per-shard stats; "vmr2l-bench -shards" records the scaling sweep in
// BENCH_shard.json. See README.md's "Scaling out".
//
// # Performance
//
// The serving hot path is allocation-free in steady state: the cluster
// keeps incremental fragment/free-resource aggregates (O(1) FragRate),
// episode resets and forks restore state in place via cluster.CopyFrom,
// sim.ExtractInto refills flat feature buffers, and policy.Model.Infer
// runs the forward pass on a tensor.Arena that skips autograd entirely,
// with sparse tree attention computed block-diagonally per PM tree.
// internal/policy has exactly two forwards: the autograd graph PPO trains
// through, and the inference wave (one stacked forward stage, one sample
// stage per action mode); Infer, Act and Probabilities are waves of one.
// Training shares the same cache/register-blocked matmul kernels and
// recycles minibatch graph storage through a per-trainer tensor.GraphPool.
// HA and SwapHA rank candidates and destinations from per-shape insertion
// tables patched after each step (internal/heuristics), so a plan's cost
// follows the PMs it touches rather than VMs × PMs. The microbenchmark
// suite behind BENCH_hotpath.json lives in internal/bench (run
// "vmr2l-bench -hotpath" or "go test -bench=Hotpath ."); see README.md's
// Performance section for how to read the artifact.
//
// # Batched inference
//
// Every parallel consumer of the policy network routes through one batched
// forward instead of batch-size-1 calls: sim.FeatureBatch stacks B
// environments' feature rows into flat (ΣnPM)×F / (ΣnVM)×F buffers,
// policy.InferBatch / policy.ActBatch (pooled policy.BatchInferCtx, zero
// steady-state allocations) run every row-wise network stage as one B-row
// GEMM with attention computed block-diagonally per environment
// (nn.Attention.InferSeg; tree attention concatenates per-env groups into
// one GroupedAttention pass). Per environment a B-row wave is
// bit-identical to policy.Model.Infer, a wave of one — each kernel computes
// every output row independently — which property tests pin across action
// modes, batch sizes, and ragged batches. Consumers: rl.Config.Envs
// lock-steps N training environments per wave, rl.EvalFR batches all test
// mappings, eval.Options.Batched batches the K risk-seeking trajectories,
// mcts.Solver.Prior (any mcts.ValuePrior; mcts.CriticPrior wraps a bare
// model) scores root candidates with one batched critic pass, and shard
// solves route a single policy engine through shard.BatchSolver so all
// shards share each wave's forward. The batching win scales with
// GOMAXPROCS (stacked GEMMs cross the kernels' parallel threshold);
// "vmr2l-bench -batch" records the batch-vs-sequential sweep in
// BENCH_batch.json and "-batch-check" gates it.
//
// # Batched serving
//
// internal/serve turns the batched forward into a continuous-batching
// server: one serve.Scheduler per model owns a pooled BatchInferCtx and a
// single runner goroutine, and every concurrent consumer — v2 jobs on the
// "vmr2l" engine, sharded rollouts, "mcts-prior" critic scoring, rl eval
// rollouts — submits one row (Submit / SubmitMany, or the typed
// Infer/Act/BatchValues) and blocks until its wave executes. Rows that
// arrive while a wave runs coalesce into the next wave, so batching
// engages exactly when the server is loaded and a lone caller pays no
// added latency (Options.MaxWait, default 0, can hold a wave open for
// stragglers; Options.MaxRows, default 128, caps wave size). Results are
// bit-identical per request to the standalone paths — property-tested
// under -race across action modes and GOMAXPROCS — and cancelling a
// queued request drops only that row, never its wavemates.
// vmr2l-server wires this up behind -ckpt (knobs -wave-rows/-wave-wait;
// counters at /debug/vmr2l/serving on the -pprof listener), and
// "vmr2l-bench -load" replays concurrent greedy episodes through the
// scheduler and the per-request baseline, recording p50/p99 latency,
// steps/sec, and achieved wave sizes in BENCH_serving.json;
// "-load-check" gates step parity, the multi-core speedup bar, and drift
// against the pinned reference.
//
// # Int8 inference & portable checkpoints
//
// The inference hot path has an int8 twin: policy.Model.Quantize converts
// the large linears (embeddings, attention projections, FFNs) to
// per-output-channel symmetric int8 (tensor.QuantizeWeight), and every
// layer forward then dispatches to packed int8 GEMM kernels
// (tensor.Arena.LinearQ8) that evaluate four weights per 64-bit multiply —
// exact integer arithmetic, so the quantized forward is deterministic and
// row-independent, preserving the batched==sequential bit-parity the
// serving stack relies on. Activations, biases, norms, and the critic head
// stay float64. Checkpoints are portable and self-describing
// (nn.Params.SaveCKPT: magic + JSON manifest + raw little-endian tensors;
// dtypes f64/f32/i8), auto-detected beside the legacy gob format on every
// -ckpt flag, validated shape-by-shape before any data is read, and
// fuzz-tested to fail cleanly on corrupt input. "vmr2l-server doctor" is
// the preflight (checkpoint/shapes/engines/port; non-zero exit on
// failure), "vmr2l-train -int8" and "vmr2l-eval -export"
// produce quantized exports, and "vmr2l-bench -quant" records the int8
// kernel speedups (pinned >=1.5x single-core at the wide serving shapes)
// plus fragmentation-rate parity of the quantized policy across the entire
// scenario registry (mean gap <= 0.02 over 3 replicas per scenario) in
// BENCH_quant.json; "-quant-check" gates it in CI.
//
// # Incremental inference
//
// Rollout steps change one VM placement, so consecutive policy forwards
// share almost all of their work. The incremental path makes that sharing
// explicit and bit-exact: the cluster keeps a dirty journal of touched
// PM/VM ids (generation-tokened, full-dirty on bulk restores),
// sim.Features.UpdateInto re-extracts only dirty machines against cached
// raw rows — re-verifying the global min-max normalizers by fresh column
// scan, renormalizing a whole side whenever a bound moved — and
// policy.InferCtx.SetIncremental(true) turns Infer's forward into a
// dirty-row patch of the wave: it caches every activation across Infer
// calls and feeds the patched rows to the wave's block stack and sample
// stage, recomputing only dirty rows through row-sliced kernels
// (tensor.LinearRows/LinearQ8Rows/LayerNormRows/GroupedAttentionRows,
// group-diffed tree attention via nn.InferTreeRows). Cache keys cover
// model identity, parameter version, cluster identity, and journal token;
// any mismatch or moved normalizer falls back to a full recompute into the
// same caches. Every forward is counted as a hit, miss, or fallback
// (InferCtx.IncrStats) — recomputes are never silent. internal/serve
// routes Env-carrying rollout requests through LRU-bounded per-session
// incremental contexts (Options.Incremental: Auto engages for the fully
// incremental extractor=none models) and surfaces incr_* counters at
// /debug/vmr2l/serving. "vmr2l-bench -incr" records exact-trajectory
// parity on every registry scenario (float and int8) and the single-core
// per-step speedup bars (pinned >=2x at >=1k PMs, zero steady-state
// allocations) in BENCH_incr.json; "-incr-check" gates it in CI
// (incr-smoke job).
//
// # Multi-node serving & failover
//
// Sessions survive node death: every session serializes to a
// self-describing VMR2LSS1 snapshot blob (GET/PUT
// /v2/clusters/{id}/snapshot) whose restore is bit-identical under replay —
// snapshot → restore → Advance equals the uninterrupted session, RNG
// position and pending evacuations included. internal/coord (binary:
// vmr2l-coord) spreads sessions across vmr2l-server replicas by consistent
// hashing, heartbeat-probes them through an Up/Suspect/Down lifecycle,
// keeps rev-skipped snapshots of dirty sessions, and re-homes a dead
// replica's sessions onto survivors from their last snapshots with exact
// accounting (rehomed == restored + restore_failed; 503+Retry-After while
// re-homing, 410 with a reason for anything genuinely lost). Both tiers
// serve Prometheus-text GET /metrics, and "vmr2l-server doctor -coord"
// preflights the fleet. "vmr2l-bench -fleet" is the node-level chaos gate:
// it kills a replica mid-advance under concurrent jobs and pins the
// failover accounting, byte-identical re-homed state (vs both the pre-kill
// snapshot and a failure-free twin), and full job accounting in
// BENCH_fleet.json; "-fleet-check" gates it in CI (fleet-smoke job).
package vmr2l
