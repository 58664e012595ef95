// Command perfbench is the repository's end-to-end, layer-attributed
// benchmark of the simulator. It drives the model only through public
// calls (core.ConfigFromJSON, core.Run, runner.RunCtx,
// experiments.ReproduceAll, experiments.Figure4, simbench.Run), checks
// every pass's outputs, and prints one JSON result line last.
//
//	perfbench -workload stream -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 a separate, profiled run reports the per-layer ones.
// See README.md for the workloads, the package-to-layer map and which
// layer metric should move which end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/simbench"
)

// heldOutSeed is kept out of tuning: later performance claims are
// re-checked on it (seeds 1-10 were used to tune this benchmark).
const heldOutSeed = 424242

// childEnv marks a process started to measure set-up: it loads the
// workload, runs one cold pass, prints the pass digest and exits.
const childEnv = "PERFBENCH_SETUP_CHILD"

// minPasses is the fewest timed passes a phase runs, however short its
// time budget.
const minPasses = 3

// setupProcesses is how many fresh processes setup_s is the median of.
const setupProcesses = 7

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	window   time.Duration
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: stream | macs | eeg | tables")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; point seeds are runner.DeriveSeed(seed, 0)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time per run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: a separate profiled run for the per-layer metrics")
	fs.DurationVar(&o.window, "window", 0, "replace every point's measurement window (tiny runs); 0 keeps the workload's")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(o.workload)
	if !ok || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload stream|macs|eeg|tables, -trace 0|1, -seconds > 0\n")
		return 2
	}
	b, err := w.load(o.seed, sim.FromDuration(o.window))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if os.Getenv(childEnv) != "" {
		return setupChild(b, stdout, stderr)
	}
	r := &result{batch: b, opts: o, args: args}
	if o.trace == 0 {
		r.endToEnd(stderr)
	} else {
		r.perLayer()
	}
	r.print(stdout)
	if !r.correct() {
		for _, p := range r.problemSummary() {
			fmt.Fprintf(stderr, "perfbench: FAIL %s\n", p)
		}
		return 1
	}
	return 0
}

// setupChild is the body of a set-up measurement process.
func setupChild(b *batch, stdout, stderr io.Writer) int {
	p := b.run()
	v := b.check(p)
	d, err := digest(p)
	if err != nil {
		v.fail("%v", err)
	}
	if len(v.problems) > 0 {
		fmt.Fprintf(stderr, "perfbench: setup: %s\n", strings.Join(v.problems, "; "))
		return 1
	}
	fmt.Fprintln(stdout, d)
	return 0
}

// result accumulates one run: the gate's findings and the metrics.
type result struct {
	batch *batch
	opts  options
	args  []string // the command line, for the set-up processes

	attempted, failed, lateJoins int
	problems                     []string
	// refDigest is the first pass's digest, which every later pass must
	// reproduce. ref is the first regeneration pass (tables only): it
	// feeds the accuracy figures and the grid cross-check.
	ref       *pass
	refDigest string

	passes  int
	metrics []metric
	notes   []string
}

// problemSummary lists each distinct problem once, with its count: the
// same failure usually repeats in every pass.
func (r *result) problemSummary() []string {
	seen := map[string]int{}
	var order []string
	for _, p := range r.problems {
		if seen[p] == 0 {
			order = append(order, p)
		}
		seen[p]++
	}
	for i, p := range order {
		if n := seen[p]; n > 1 {
			order[i] = fmt.Sprintf("%s (x%d)", p, n)
		}
	}
	return order
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

func (r *result) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) tally(v verdict) {
	r.attempted += v.attempted
	r.failed += v.failed
	r.lateJoins += v.lateJoins
	r.problems = append(r.problems, v.problems...)
}

// gate checks one pass and its digest against the cold pass's.
func (r *result) gate(p *pass) {
	r.tally(r.batch.check(p))
	d, err := digest(p)
	switch {
	case err != nil:
		r.problems = append(r.problems, err.Error())
	case r.refDigest == "":
		r.refDigest = d
	case d != r.refDigest:
		r.problems = append(r.problems, fmt.Sprintf("digest %s differs from the first pass's %s for the same seed", d, r.refDigest))
	}
	// Only the regeneration's small outputs are kept: holding a
	// sequential pass's core.Results would change the heap every later
	// pass runs against.
	if r.ref == nil && r.batch.tables != nil {
		r.ref = p
	}
}

// hostCost is one pass's cost on the host. Passes run back to back, as
// a batch user runs them: a pass may pay for collecting the previous
// pass's garbage, and no pass pays for a forced collection.
type hostCost struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func measure(fn func() *pass) (*pass, hostCost) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p := fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return p, hostCost{
		wall:    wall,
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		gcs:     m1.NumGC - m0.NumGC,
	}
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// loop calls each until budget has passed and it ran at least
// minPasses times.
func loop(budget time.Duration, each func()) {
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		each()
	}
}

// endToEnd is the untraced run: set-up in fresh processes, a cold pass,
// then timed passes for the run's seconds.
func (r *result) endToEnd(stderr io.Writer) {
	b := r.batch
	var setup []float64
	for i := 0; i < setupProcesses; i++ {
		s, err := r.setupOnce(stderr)
		r.attempted += len(b.points)
		if err != nil {
			r.failed += len(b.points)
			r.problems = append(r.problems, err.Error())
			continue
		}
		setup = append(setup, s)
	}
	r.gate(b.run())

	var costs []hostCost
	var spans []time.Duration
	var events []uint64
	var retained uint64
	loop(r.budget(1), func() {
		p, c := measure(b.run)
		if len(costs) == 0 {
			// After the first timed pass only, with its outputs still
			// held: a forced collection after every pass would shape
			// the passes after it, and the runtime's own heap creeps up
			// a few hundred bytes a pass (goroutine descriptors).
			retained = liveHeap()
		}
		costs = append(costs, c)
		spans = append(spans, p.spans...)
		events = append(events, sumEvents(p))
		r.gate(p)
	})
	r.passes = len(costs)

	wall := median(mapf(costs, func(c hostCost) float64 { return c.wall.Seconds() }))
	r.add("setup_s", "s", median(setup))
	r.add("wall_s", "s", wall)
	r.add("sim_s_per_s", "sim-s/s", b.simS/wall)
	r.add("allocs_per_sim_s", "allocs/sim-s", median(mapf(costs, func(c hostCost) float64 { return float64(c.mallocs) }))/b.simS)
	r.add("alloc_mb_per_sim_s", "MB/sim-s", median(mapf(costs, func(c hostCost) float64 { return float64(c.bytes) }))/1e6/b.simS)
	r.add("retained_mb", "MB", float64(retained)/1e6)

	r.notef("setup_s is the median of %d fresh processes %s; wall_s the median of %d timed passes %s, %g simulated s each",
		len(setup), spread(setup), r.passes, spread(mapf(costs, func(c hostCost) float64 { return c.wall.Seconds() })), b.simS)
	r.notef("fail_ratio %v ratio (%d of %d points failed, omitted or not fully joined)", r.failRatio(), r.failed, r.attempted)
	r.notef("late_joins %d count (points where an unslotted MAC finished associating after warmup)", r.lateJoins)
	if b.tables != nil {
		radio, mcu := accuracy(r.ref)
		r.notef("radio_err_pct %v %% (mean |radio error| vs the paper's Real column over the table rows)", radio)
		r.notef("mcu_err_pct %v %% (the same for uC energy)", mcu)
		r.notef("host cost around core.Run: see the -trace 1 run (ReproduceAll does not return core.Results)")
		return
	}
	h := hostCostOf(costs, spans, events)
	r.notef("host cost around core.Run: %v ns/event, %v allocs/event, %v B/event, %v GC cycles/pass",
		h.nsPerEvent, h.allocsPerEvent, h.bytesPerEvent, h.gcCycles)
}

func (r *result) failRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// budget is the run's measured time divided among its phases.
func (r *result) budget(phases int) time.Duration {
	return time.Duration(r.opts.seconds * float64(time.Second) / float64(phases))
}

// setupOnce times one fresh set-up process, from start to exit, and
// checks that its cold pass digests like this process's passes.
func (r *result) setupOnce(stderr io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, r.args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout = &out
	cmd.Stderr = stderr
	t0 := time.Now()
	err = cmd.Run()
	s := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("setup process: %w", err)
	}
	d := strings.TrimSpace(out.String())
	if r.refDigest != "" && d != r.refDigest {
		return 0, fmt.Errorf("setup process digest %s differs from %s for the same seed", d, r.refDigest)
	}
	if r.refDigest == "" {
		r.refDigest = d
	}
	return s, nil
}

// perLayer is the traced run. An untraced phase gives the baseline
// wall time, host cost and exact counts; a profiled phase gives each
// layer's self time; for tables, a phase driving the same grid through
// runner.RunCtx gives the runner spans. Then the kernel probe.
func (r *result) perLayer() {
	b := r.batch
	phases := 2
	if b.tables != nil {
		phases = 3
	}
	r.gate(b.run())

	// Untraced phase.
	var costs []hostCost
	var spans []time.Duration
	var events []uint64
	var cnt []metric
	loop(r.budget(phases), func() {
		p, c := measure(b.run)
		costs = append(costs, c)
		if b.tables == nil {
			spans = append(spans, p.spans...)
			events = append(events, sumEvents(p))
			cnt = counts(p.results)
		}
		r.gate(p)
	})
	untraced := median(mapf(costs, func(c hostCost) float64 { return c.wall.Seconds() }))

	// Profiled phase: the same passes under the CPU profiler.
	var prof bytes.Buffer
	var walls []float64
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("profile: %v", err))
	}
	loop(r.budget(phases), func() {
		p, c := measure(b.run)
		walls = append(walls, c.wall.Seconds())
		r.gate(p)
	})
	pprof.StopCPUProfile()
	traced := median(walls)
	self, err := selfTimes(prof.Bytes())
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
	r.passes = len(costs) + len(walls)

	var sampled int64
	for _, l := range layers {
		sampled += self[l]
		r.add(l+".self_s", "s", float64(self[l])/1e9/float64(len(walls)))
	}
	r.add("profile.sampled_s", "s", float64(sampled)/1e9/float64(len(walls)))
	r.notef("self times are sampled CPU seconds per profiled pass (%d passes); the buckets sum to profile.sampled_s", len(walls))

	// Runner phase (tables only): a regeneration and a drive of its grid
	// through runner.RunCtx, back to back, so assemble time is a paired
	// difference.
	var busy, idle, util, assemble []float64
	if b.tables != nil {
		costs = costs[:0]
		workers := float64(b.tables.Workers)
		loop(r.budget(phases), func() {
			t0 := time.Now()
			regen := b.run()
			regenWall := time.Since(t0)
			r.gate(regen)

			var gs gridSpans
			p, c := measure(func() *pass {
				var p *pass
				p, gs = b.runGrid()
				return p
			})
			costs = append(costs, c)
			spans = append(spans, p.spans...)
			events = append(events, sumEvents(p))
			cnt = counts(p.results)
			busy = append(busy, gs.busy.Seconds())
			idle = append(idle, workers*gs.runCtx.Seconds()-gs.busy.Seconds())
			util = append(util, gs.busy.Seconds()/(workers*gs.runCtx.Seconds()))
			assemble = append(assemble, (regenWall - gs.runCtx).Seconds())
			if err := b.gridMatches(p, r.ref); err != nil {
				r.problems = append(r.problems, err.Error())
			}
			// The grid is gated like a pass, but it digests differently
			// from the regeneration, so it is not compared to refDigest.
			r.tally(b.check(p))
		})
	}

	r.add("core.run_ms_p50", "ms", median(mapf(spans, func(d time.Duration) float64 { return float64(d) / 1e6 })))
	r.add("runner.busy_s", "s", median(busy))
	r.add("runner.idle_s", "s", median(idle))
	r.add("runner.utilization", "ratio", median(util))
	r.add("experiments.assemble_s", "s", median(assemble))
	r.add("tracing.overhead_pct", "%", (traced/untraced-1)*100)

	h := hostCostOf(costs, spans, events)
	r.add("core.ns_per_event", "ns", h.nsPerEvent)
	r.add("core.allocs_per_event", "allocs/event", h.allocsPerEvent)
	r.add("core.bytes_per_event", "B/event", h.bytesPerEvent)
	r.add("core.gc_cycles", "count", h.gcCycles)

	ns, allocs := probe()
	r.add("sim.probe_ns_per_event", "ns", ns)
	r.add("sim.probe_allocs_per_event", "allocs/event", allocs)

	for _, m := range cnt {
		r.add(m.name, m.unit, m.value)
	}
	r.notef("untraced pass %.4g s, profiled pass %.4g s", untraced, traced)
}

func sumEvents(p *pass) uint64 {
	var n uint64
	for _, res := range p.results {
		n += res.KernelEvents
	}
	return n
}

type hostCosts struct {
	nsPerEvent, allocsPerEvent, bytesPerEvent, gcCycles float64
}

// hostCostOf is the host cost around core.Run: span time, allocations
// and bytes per kernel event, and collections per pass (medians over
// passes).
func hostCostOf(costs []hostCost, spans []time.Duration, events []uint64) hostCosts {
	if len(events) == 0 || len(costs) != len(events) {
		return hostCosts{}
	}
	perPass := len(spans) / len(events)
	var ns, allocs, bytes, gcs []float64
	for i, c := range costs {
		ev := float64(events[i])
		var span time.Duration
		for _, s := range spans[i*perPass : (i+1)*perPass] {
			span += s
		}
		ns = append(ns, float64(span)/ev)
		allocs = append(allocs, float64(c.mallocs)/ev)
		bytes = append(bytes, float64(c.bytes)/ev)
		gcs = append(gcs, float64(c.gcs))
	}
	return hostCosts{median(ns), median(allocs), median(bytes), median(gcs)}
}

// probe is simbench.Run(Reference()) on a fresh wheel kernel, the
// workload of the BENCH_*.json kernel trajectory: medians of five
// repetitions after one warm-up.
func probe() (nsPerEvent, allocsPerEvent float64) {
	cfg := simbench.Reference()
	simbench.Run(sim.NewKernel(1), cfg)
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < 5; i++ {
		k := sim.NewKernel(1)
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res := simbench.Run(k, cfg)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(wall)/float64(res.Executed))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(res.Executed))
	}
	return median(ns), median(allocs)
}

// accuracy is the mean absolute error of the regenerated tables
// against the paper's Real column, radio and µC, over complete rows.
func accuracy(p *pass) (radio, mcu float64) {
	n := 0
	for _, t := range p.tables {
		for _, c := range t.Rows {
			if c.Omitted != "" {
				continue
			}
			radio += math.Abs(c.RadioErrVsReal())
			mcu += math.Abs(c.MCUErrVsReal())
			n++
		}
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return radio / float64(n), mcu / float64(n)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread renders a sample's minimum, quartiles and maximum.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "(none)"
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("(min %.4g, q1 %.4g, q3 %.4g, max %.4g s)", s[0], q(0.25), q(0.75), s[len(s)-1])
}

func mapf[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// provenance records what produced the numbers.
func provenance(seed int64) string {
	rev, modified := "none", "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return fmt.Sprintf("provenance: cpu=%q nproc=%d gomaxprocs=%d go=%s vcs.revision=%s vcs.modified=%s seed=%d held_out_seed=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, modified, seed, heldOutSeed)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result as the
// last line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench: workload=%s trace=%d points/pass=%d sim_s/pass=%g passes=%d\n",
		r.batch.name, r.opts.trace, len(r.batch.points), r.batch.simS, r.passes)
	fmt.Fprintln(w, provenance(r.opts.seed))
	fmt.Fprintf(w, "digest: %s\n", r.refDigest)
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric: %s %v %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, p := range r.problemSummary() {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		line = []byte(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
	}
	fmt.Fprintln(w, string(line))
}
