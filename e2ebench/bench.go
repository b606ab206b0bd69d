package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// budgetSlack is added to the solve budget before an answered plan counts
// as missing it: polling, HTTP and repair all happen outside the budget.
const budgetSlack = 500 * time.Millisecond

// bench is one run of one workload.
type bench struct {
	seed   int64
	window time.Duration // the timed phase
	tr     *tracer       // nil unless -trace 1
	ps     *procs
	hc     *http.Client
	work   string

	// t0 is the start of the timed phase; record offsets are from it.
	t0 time.Time

	mu     sync.Mutex
	setup  []time.Duration
	jobs   []*jobRec
	events []*eventRec
	phases map[string]*phase
	layer  map[string]float64
	fails  []string
	rssMB  float64
	// serverCPU is the CPU time the server processes used in the timed phase.
	serverCPU time.Duration
	// probe holds the host probe's rounds through the timed phase.
	probe   []time.Duration
	open    bool            // open-loop workload: latency counts from the due time
	lateOps []time.Duration // how late each scheduled send went out
}

// phase counts the operations of one phase of the run. Every operation
// sent ends in exactly one of the three outcomes.
type phase struct {
	Sent, Succeeded, Failed, Shed int
}

// jobRec is one session job (one plan) as the generator saw it. Times are
// offsets from the start of the timed phase.
type jobRec struct {
	sess                int
	due, sent, accepted time.Duration
	started, done       time.Duration
	code                int // submit status; 0 on a transport error
	id                  string
	state               string // succeeded, failed, or "" when never resolved
	phase               string // "" for the timed phase
	timedOut            bool
	res                 *planJSON
}

type eventRec struct {
	due, sent, done time.Duration
	code            int
}

func newBench(seed int64, window time.Duration, traced bool, ps *procs, work string) *bench {
	b := &bench{
		seed: seed, window: window, ps: ps, hc: newHTTPClient(), work: work,
		phases: map[string]*phase{}, layer: map[string]float64{},
	}
	if traced {
		b.tr = newTracer()
	}
	// Every per-layer metric is reported on every workload; a layer the
	// workload does not exercise reads 0.
	for name := range units {
		b.layer[name] = 0
	}
	for _, name := range endToEndNames {
		delete(b.layer, name)
	}
	return b
}

func (b *bench) now() time.Duration { return time.Since(b.t0) }

// count records one operation's outcome in a phase.
func (b *bench) count(name string, code int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.phases[name]
	if p == nil {
		p = &phase{}
		b.phases[name] = p
	}
	p.Sent++
	switch {
	case ok:
		p.Succeeded++
	case code == http.StatusServiceUnavailable:
		p.Shed++
	default:
		p.Failed++
	}
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = append(b.fails, fmt.Sprintf(format, args...))
}

// setupRounds times `rounds` full set-ups — launching the processes and
// creating every session — keeping the last one running.
func (b *bench) setupRounds(rounds int, launch func() error, teardown func()) error {
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if err := launch(); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(start))
		if r < rounds-1 {
			teardown()
		}
	}
	return nil
}

// createSession posts a pre-encoded session request.
func (b *bench) createSession(base string, body []byte) error {
	code, _, _, err := call(b.hc, http.MethodPost, base+"/v2/clusters", body, nil)
	b.count("setup", code, err == nil)
	return err
}

// postEvents sends one events request that fell due at `due`; its latency
// counts from then. A closed-loop caller passes the current time.
func (b *bench) postEvents(base, sess string, req eventsReq, due time.Duration) (*eventRec, error) {
	rec := &eventRec{due: due, sent: b.now()}
	s := b.tr.begin("http.events", sp{})
	code, _, _, err := call(b.hc, http.MethodPost, base+"/v2/clusters/"+sess+"/events", req, nil)
	s.end()
	rec.done, rec.code = b.now(), code
	b.count("timed", code, err == nil)
	b.mu.Lock()
	b.events = append(b.events, rec)
	b.lateOps = append(b.lateOps, openLoopOp{due: rec.due, sent: rec.sent}.late())
	b.mu.Unlock()
	return rec, err
}

// submit posts a session job; the record is kept whatever the answer.
func (b *bench) submit(base, sess string, req planReq, rec *jobRec) error {
	rec.sent = b.now()
	if !b.open {
		rec.due = rec.sent
	}
	s := b.tr.begin("http.submit", sp{})
	var st jobJSON
	code, _, _, err := call(b.hc, http.MethodPost, base+"/v2/clusters/"+sess+"/jobs", req, &st)
	s.end()
	rec.accepted, rec.code, rec.id = b.now(), code, st.ID
	if rec.phase == "" {
		b.mu.Lock()
		b.jobs = append(b.jobs, rec)
		if b.open {
			b.lateOps = append(b.lateOps, openLoopOp{due: rec.due, sent: rec.sent}.late())
		}
		b.mu.Unlock()
	}
	if err != nil {
		b.count(rec.phaseName(), code, false)
	}
	return err
}

// poll fetches a job's status once; it reports whether the job finished.
func (b *bench) poll(base string, rec *jobRec) bool {
	s := b.tr.begin("http.poll", sp{})
	var st jobJSON
	code, _, _, err := call(b.hc, http.MethodGet, base+"/v2/jobs/"+rec.id, nil, &st)
	s.end()
	at := b.now()
	if err != nil {
		rec.done = at
		b.count(rec.phaseName(), code, false)
		return true
	}
	if st.State != "queued" && rec.started == 0 {
		rec.started = at
	}
	switch st.State {
	case "succeeded", "failed":
		rec.done, rec.state, rec.timedOut, rec.res = at, st.State, st.TimedOut, st.Result
		b.count(rec.phaseName(), code, st.State == "succeeded")
		return true
	}
	if at-rec.accepted > budget+30*time.Second {
		rec.done = at
		b.count(rec.phaseName(), code, false) // never resolved
		return true
	}
	return false
}

// wait polls a job at a fixed interval until it finishes.
func (b *bench) wait(base string, rec *jobRec, every time.Duration) {
	for {
		time.Sleep(every)
		if b.poll(base, rec) {
			return
		}
	}
}

func (rec *jobRec) phaseName() string {
	if rec.phase == "" {
		return "timed"
	}
	return rec.phase
}

// onTime reports whether a job succeeded within the budget plus slack.
func (rec *jobRec) onTime() bool {
	op := openLoopOp{due: rec.due, sent: rec.sent, done: rec.done}
	return rec.state == "succeeded" && !rec.timedOut && op.latency() <= budget+budgetSlack
}

// endToEnd computes the user-facing metrics of the timed phase.
func (b *bench) endToEnd() map[string]float64 {
	var lat []float64
	var ok, onTime int
	var last time.Duration
	for _, j := range b.jobs {
		if j.state == "succeeded" {
			lat = append(lat, ms(openLoopOp{due: j.due, sent: j.sent, done: j.done}.latency()))
			ok++
		}
		if j.onTime() {
			onTime++
		}
		last = max(last, j.done)
	}
	var ev []float64
	for _, e := range b.events {
		if e.code/100 == 2 {
			ev = append(ev, ms(openLoopOp{due: e.due, sent: e.sent, done: e.done}.latency()))
		}
	}
	// Throughput is over the time the plans took to serve: from the start
	// of the timed phase to the last completion.
	completed := ok
	if b.open {
		completed = onTime
	}
	cpu := ms(b.serverCPU) / float64(max(ok, 1))
	probe := percentile(secs(b.probe), 50) * 1000
	b.layer["bench.plan_cpu_ms"] = cpu
	b.layer["bench.host_probe_ms"] = probe
	t := b.phases["timed"]
	m := map[string]float64{
		"setup_s":          percentile(secs(b.setup), 50),
		"plan_cpu_norm_ms": cpu * ms(probeRef) / probe,
		"ok_frac":          frac(t.Succeeded, t.Sent),
		"budget_met_frac":  frac(onTime, len(b.jobs)),
	}
	// Wall-clock figures are reported but carry no bound: on a 2-vCPU VM
	// of a shared host, CPU steal and neighbours' load move them between
	// runs of the same code by more than any bound the benchmark could
	// hold them to (see METRICS.md).
	b.layer["wall.plan_ms_p50"] = percentile(lat, 50)
	b.layer["wall.plan_ms_p90"] = percentile(lat, 90)
	b.layer["wall.plans_per_s"] = float64(completed) / last.Seconds()
	b.layer["wall.events_ms_p50"] = percentile(ev, 50)
	b.layer["wall.events_ms_p90"] = percentile(ev, 90)
	b.layer["service.rss_peak_mb"] = b.rssMB
	return m
}

func secs(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

func frac(a, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(a) / float64(n)
}

// serviceLayer fills the per-layer metrics read from the served jobs.
func (b *bench) serviceLayer() {
	var overhead, queue []float64
	var valid, planned, forced int
	var gain []float64
	for _, j := range b.jobs {
		if j.state != "succeeded" || j.res == nil {
			continue
		}
		overhead = append(overhead, ms(j.done-j.sent)-j.res.ElapsedMS)
		queue = append(queue, ms(j.started-j.accepted))
		if r := j.res.Repair; r != nil {
			valid += r.Valid
			planned += j.res.Steps
			forced += r.Evacuated
			gain = append(gain, r.LiveInitialFR-r.LiveFinalFR)
		}
	}
	var late []float64
	for _, d := range b.lateOps {
		late = append(late, ms(d))
	}
	b.layer["service.overhead_ms_p50"] = percentile(overhead, 50)
	b.layer["service.queue_wait_ms_p50"] = percentile(queue, 50)
	b.layer["solver.kept_frac"] = frac(valid, planned)
	b.layer["solver.forced_total"] = float64(forced)
	b.layer["solver.live_fr_gain"] = mean(gain)
	b.layer["bench.loadgen_late_ms_p90"] = percentile(late, 90)
	b.layer["bench.plan_samples"] = float64(len(overhead))
}

// spanLayer fills the per-layer metrics computed from span self times.
func (b *bench) spanLayer() {
	self := selfTimes(b.tr.all())
	us := func(name string) float64 { return percentile(selfMS(self, name), 50) * 1000 }
	b.layer["cluster.clone_ms_p50"] = percentile(selfMS(self, "cluster.clone"), 50)
	b.layer["heuristics.solve_ms_p50"] = percentile(selfMS(self, "heuristics.solve"), 50)
	b.layer["policy.infer_ms_p50"] = percentile(selfMS(self, "policy.infer"), 50)
	b.layer["sim.extract_us_p50"] = us("sim.extract")
	b.layer["sim.mask_us_p50"] = us("sim.mask")
	b.layer["sim.step_us_p50"] = us("sim.step")
	b.layer["sched.apply_us_p50"] = us("sched.apply")
	b.layer["solver.repair_ms_p50"] = percentile(selfMS(self, "solver.repair"), 50)
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
