// Command e2ebench is the repository benchmark. It starts the real
// vmr2l-server (and, on churn-fleet, vmr2l-coord in front of two
// replicas), drives one session workload over loopback HTTP for a fixed
// time, checks every served plan against an in-process replay, and prints
// the end-to-end metrics — or, with -trace 1, the per-layer metrics from
// spans recorded around the benchmark's own calls into each layer. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it from the repository root through the wrapper, which builds the
// binaries from the checkout first:
//
//	bash e2ebench/run.sh --workload large-ha --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and the layer each per-layer metric belongs to are
// described in e2ebench/METRICS.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type workload struct {
	run func(*bench) error
	// open marks open-loop workloads: latency counts from the due time.
	open bool
}

var workloads = map[string]workload{
	"large-ha":     {run: runLargeHA},
	"small-policy": {run: runSmallPolicy, open: true},
	"churn-fleet":  {run: runChurnFleet},
}

// units of every metric the benchmark reports.
var units = map[string]string{
	"setup_s": "s", "plan_cpu_norm_ms": "ms", "ok_frac": "frac", "budget_met_frac": "frac",

	"wall.plan_ms_p50": "ms", "wall.plan_ms_p90": "ms", "wall.plans_per_s": "1/s",
	"wall.events_ms_p50": "ms", "wall.events_ms_p90": "ms", "service.rss_peak_mb": "MB",

	"heuristics.solve_ms_p50": "ms", "heuristics.proof_ms_p50": "ms", "heuristics.steps_mean": "count",
	"cluster.clone_ms_p50": "ms", "trace.decode_ms": "ms",
	"policy.infer_ms_p50": "ms", "policy.forward_mflop": "MFLOP",
	"sim.extract_us_p50": "us", "sim.mask_us_p50": "us", "sim.step_us_p50": "us",
	"serve.rows_per_wave": "rows", "serve.wait_ms_p50": "ms", "serve.probe_rows_per_wave": "rows",
	"service.overhead_ms_p50": "ms", "service.queue_wait_ms_p50": "ms", "service.shed_total": "count",
	"service.snapshot_ms_p50": "ms", "service.snapshot_kb": "KiB",
	"coord.proxy_ms_p50": "ms", "coord.snapshots_total": "count",
	"sched.apply_us_p50":   "us",
	"solver.repair_ms_p50": "ms", "solver.kept_frac": "frac", "solver.forced_total": "count",
	"solver.live_fr_gain":       "fr",
	"solver.unreported_total":   "count",
	"bench.loadgen_late_ms_p90": "ms", "bench.tracing_overhead_frac": "frac", "bench.plan_samples": "count",
	"bench.cpu_steal_frac": "frac", "bench.plan_cpu_ms": "ms", "bench.host_probe_ms": "ms",
}

var endToEndNames = []string{"setup_s", "plan_cpu_norm_ms", "ok_frac", "budget_met_frac"}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "large-ha", "workload: large-ha, small-policy or churn-fleet")
		seed    = flag.Int64("seed", 1, "workload seed: mappings, events and schedules derive from it")
		seconds = flag.Int("seconds", 30, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		bin     = flag.String("bin", "", "directory holding vmr2l-server and vmr2l-coord")
		work    = flag.String("work", ".bench_build", "directory for checkpoints, logs and spans")
		source  = flag.String("source", "", "identifier of the source tree under test")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *bin == "" {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d, bin %q)\n", *name, *seconds, *traced, *bin)
		os.Exit(2)
	}
	runDir := filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	ps := &procs{bin: *bin, work: runDir}
	// Stopped from outside: take the servers down with us.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		ps.stopAll()
		os.Exit(1)
	}()

	// The generator shares two cores with the servers it measures: collect
	// its own garbage rarely.
	debug.SetGCPercent(400)
	b := newBench(*seed, time.Duration(*seconds)*time.Second, *traced == 1, ps, runDir)
	b.open = w.open
	env := environment(*seed, *source)
	err := w.run(b)
	ps.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if b.tr != nil {
		b.spanLayer()
		spans := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := b.tr.write(spans); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Println("spans:", spans)
	}
	_ = os.RemoveAll(runDir)
	b.serviceLayer()

	res := resultJSON{Correct: len(b.fails) == 0, Metrics: map[string]metricJSON{}}
	if t := b.phases["timed"]; t != nil {
		res.Attempted, res.Failed = t.Sent, t.Failed+t.Shed
	}
	e2e := b.endToEnd()
	fmt.Printf("env: %s\n", env)
	fmt.Printf("workload %s seed %d: %d plans, tail percentile supported by the sample: p%v\n",
		*name, *seed, len(b.jobs), tailPercentile(int(b.layer["bench.plan_samples"])))
	fmt.Printf("set-up rounds (s): %.4f\n", secs(b.setup))
	for _, ph := range []string{"setup", "timed", "check", "probe"} {
		if p := b.phases[ph]; p != nil {
			fmt.Printf("phase %-6s sent %d succeeded %d failed %d shed %d\n", ph, p.Sent, p.Succeeded, p.Failed, p.Shed)
		}
	}
	fmt.Printf("server cpu %.3f s in the timed phase, %.4f ms per plan; host probe p50 %.4f ms over %d rounds\n",
		b.serverCPU.Seconds(), b.layer["bench.plan_cpu_ms"], b.layer["bench.host_probe_ms"], len(b.probe))
	fmt.Printf("live_fr_gain %.6g over %d plans; cpu steal %.1f%% of the timed phase\n",
		b.layer["solver.live_fr_gain"], int(b.layer["bench.plan_samples"]), 100*b.layer["bench.cpu_steal_frac"])
	for _, k := range endToEndNames {
		fmt.Printf("%-28s %14.6g %s\n", k, e2e[k], units[k])
	}
	if *traced == 1 {
		for _, k := range sortedKeys(b.layer) {
			fmt.Printf("%-28s %14.6g %s\n", k, b.layer[k], units[k])
			res.Metrics[k] = metricJSON{Value: b.layer[k], Unit: units[k]}
		}
	} else {
		for _, k := range endToEndNames {
			res.Metrics[k] = metricJSON{Value: e2e[k], Unit: units[k]}
		}
		for _, k := range []string{"wall.plan_ms_p50", "wall.plan_ms_p90", "wall.plans_per_s",
			"wall.events_ms_p50", "wall.events_ms_p90", "service.rss_peak_mb"} {
			fmt.Printf("%-28s %14.6g %s (unbounded)\n", k, b.layer[k], units[k])
		}
	}
	for _, f := range b.fails {
		fmt.Println("CHECK FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// environment records what the numbers were measured on.
func environment(seed int64, source string) string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Only a git checkout has a commit; elsewhere the source hash names
	// the code (and git must not search directories above the checkout).
	commit := "none"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return fmt.Sprintf("go %s gomaxprocs %d nproc %d cpu %q seed %d commit %s source %s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, seed, commit, source)
}
