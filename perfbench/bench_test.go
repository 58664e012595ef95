package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TestMain runs the tests from the repository root, as the benchmark
// runs, and lets the test binary stand in for the benchmark binary when
// a tiny run starts its set-up processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type spec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs the benchmark at a 1 s window with a short budget and
// returns its JSON result line.
func tinyRun(t *testing.T, workload string, trace string) jsonResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "3", "-seconds", "0.05", "-trace", trace,
		"-window", "1s"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not the result: %v\n%s", workload, trace, err, stdout.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %s: exit %d, result %+v\n%s%s", workload, trace, code, res, stdout.String(), stderr.String())
	}
	return res
}

// TestTinyRunsEmitEveryMetric: every workload, in both modes, emits
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	for _, w := range names {
		for trace, want := range map[string][]spec{"0": bj.EndToEnd, "1": bj.PerLayer} {
			res := tinyRun(t, w, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w, trace, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s trace %s: metric %s in %q, BENCHMARK.json says %q", w, trace, s.Name, m.Unit, s.Unit)
				}
			}
			if trace == "0" {
				for _, s := range bj.EndToEnd {
					if res.Metrics[s.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, s.Name)
					}
				}
				continue
			}
			var sum float64
			for _, l := range layers {
				sum += res.Metrics[l+".self_s"].Value
			}
			if total := res.Metrics["profile.sampled_s"].Value; math.Abs(sum-total) > 1e-9*math.Max(1, total) {
				t.Errorf("%s: self times sum to %v, sampled total %v", w, sum, total)
			}
			runnerUsed := res.Metrics["runner.busy_s"].Value > 0
			if runnerUsed != (w == "tables") {
				t.Errorf("%s: runner.busy_s = %v", w, res.Metrics["runner.busy_s"].Value)
			}
		}
	}
}

func tinyBatch(t *testing.T, workload string) *batch {
	t.Helper()
	w, _ := lookupWorkload(workload)
	b, err := w.load(5, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func clonePass(p *pass) *pass {
	q := *p
	q.results = slices.Clone(p.results)
	for i := range q.results {
		q.results[i].Nodes = slices.Clone(p.results[i].Nodes)
	}
	q.errs = slices.Clone(p.errs)
	q.tables = slices.Clone(p.tables)
	for i := range q.tables {
		q.tables[i].Rows = slices.Clone(p.tables[i].Rows)
	}
	return &q
}

// TestDigestTripsOnPerturbedResult: a pass whose outputs differ in one
// counter or one energy fails the digest check.
func TestDigestTripsOnPerturbedResult(t *testing.T) {
	b := tinyBatch(t, "stream")
	p := b.run()
	perturb := map[string]func(q *pass){
		"counter": func(q *pass) { q.results[0].Nodes[0].Mac.Retries++ },
		"energy":  func(q *pass) { q.results[0].Nodes[1].Energy.TotalJ *= 1 + 1e-15 },
		"events":  func(q *pass) { q.results[0].KernelEvents-- },
		"channel": func(q *pass) { q.results[0].Channel.Collisions++ },
	}
	for name, f := range perturb {
		r := &result{batch: b}
		r.gate(p)
		q := clonePass(p)
		f(q)
		r.gate(q)
		if r.correct() || !strings.Contains(strings.Join(r.problems, "\n"), "digest") {
			t.Errorf("%s perturbation passed the digest check: %v", name, r.problems)
		}
	}
	r := &result{batch: b}
	r.gate(p)
	r.gate(clonePass(p))
	if !r.correct() {
		t.Fatalf("an unperturbed copy failed: %v", r.problems)
	}
}

// TestGateTripsOnOmittedPoint: an omitted table row, a failed point and
// an unjoined TDMA point each fail the gate and count in fail_ratio.
func TestGateTripsOnOmittedPoint(t *testing.T) {
	tb := tinyBatch(t, "tables")
	p := tb.run()
	if v := tb.check(p); v.failed != 0 || len(v.problems) != 0 {
		t.Fatalf("clean regeneration failed the gate: %+v", v)
	}
	q := clonePass(p)
	q.tables[2].Rows[1].Omitted = "join incomplete"
	r := &result{batch: tb}
	r.gate(q)
	if r.correct() || r.failed != 1 || r.failRatio() != 1.0/float64(len(tb.points)) {
		t.Errorf("omitted row: failed %d of %d, problems %v", r.failed, r.attempted, r.problems)
	}

	sb := tinyBatch(t, "stream")
	p = sb.run()
	q = clonePass(p)
	q.errs[0] = errors.New("core: events budget exceeded")
	if v := sb.check(q); v.failed != 1 {
		t.Errorf("failed point: %+v", v)
	}
	q = clonePass(p)
	q.results[0].JoinedAll = false
	if v := sb.check(q); v.failed != 1 {
		t.Errorf("unjoined TDMA point: %+v", v)
	}
}

// TestGateOnUnslottedJoins: an unslotted MAC point whose nodes finish
// associating after warmup passes as a late join; one with a node that
// never associated fails.
func TestGateOnUnslottedJoins(t *testing.T) {
	b := tinyBatch(t, "macs")
	p := b.run()
	lpl := slices.IndexFunc(b.points, func(pt runner.Point) bool { return pt.Label == "lpl" })
	q := clonePass(p)
	q.results[lpl].JoinedAll = false
	if v := b.check(q); v.failed != 0 || v.lateJoins != 1 {
		t.Errorf("late LPL join: %+v", v)
	}
	q.results[lpl].Nodes[0].Availability = 0
	if v := b.check(q); v.failed != 1 {
		t.Errorf("LPL node that never associated: %+v", v)
	}
}

// TestBandsTrip: a row outside its paper-fidelity band fails at full
// windows.
func TestBandsTrip(t *testing.T) {
	var v verdict
	c := report.Comparison{RadioRealMJ: 100, OursRadioMJ: 107, MCURealMJ: 100, MCUSimMJ: 100, OursMCUMJ: 103}
	checkBand(&v, "ok", bandFor("table1", "x"), c)
	if len(v.problems) != 0 {
		t.Fatalf("in-band row failed: %v", v.problems)
	}
	c.OursRadioMJ = 109
	checkBand(&v, "radio", bandFor("table1", "x"), c)
	c.OursRadioMJ, c.OursMCUMJ = 100, 105
	checkBand(&v, "mcu-vs-sim", bandFor("table1", "x"), c)
	if len(v.problems) != 2 {
		t.Fatalf("out-of-band rows: %v", v.problems)
	}
	v = verdict{}
	c.OursMCUMJ, c.OursRadioMJ = 100, 111
	checkBand(&v, "wide", bandFor("table4", "n=2"), c)
	if len(v.problems) != 0 {
		t.Fatalf("table4 n=2 has the wider band: %v", v.problems)
	}
}

// TestGridMatchesRegeneration: the traced run's own drive of the
// tables grid reproduces the regenerated tables to the bit, and a
// perturbed grid does not.
func TestGridMatchesRegeneration(t *testing.T) {
	b := tinyBatch(t, "tables")
	regen := b.run()
	grid, _ := b.runGrid()
	if err := b.gridMatches(grid, regen); err != nil {
		t.Fatal(err)
	}
	q := clonePass(grid)
	q.results[4].Nodes[0].Energy.Components = slices.Clone(q.results[4].Nodes[0].Energy.Components)
	for i := range q.results[4].Nodes[0].Energy.Components {
		q.results[4].Nodes[0].Energy.Components[i].EnergyJ *= 1.01
	}
	if err := b.gridMatches(q, regen); err == nil {
		t.Fatal("perturbed grid matched")
	}
}

// TestLayerMapCoversReachedPackages: every repro/internal package this
// benchmark reaches has a layer.
func TestLayerMapCoversReachedPackages(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", ".")
	cmd.Dir = "perfbench"
	out, err := cmd.Output()
	if err != nil {
		t.Skipf("go list: %v", err)
	}
	seen := 0
	for _, path := range strings.Fields(string(out)) {
		pkg, ok := internalPkg(path + ".")
		if !ok {
			continue
		}
		seen++
		if _, ok := layerOf[pkg]; !ok {
			t.Errorf("package repro/internal/%s has no layer", pkg)
		}
	}
	if seen < 20 {
		t.Fatalf("only %d repro/internal packages reached", seen)
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		frames []string
		inPass bool
		want   string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/ecg.(*Generator).ValueAt", "repro/internal/sim.(*Kernel).RunUntil"}, true, "ecg"},
		{[]string{"repro/internal/approx.Equal", "repro/internal/mac.(*NodeMac).onSlot"}, true, "mac"},
		{[]string{"repro/internal/mac/mactest.Run"}, true, "mac"},
		{[]string{"runtime.gcBgMarkWorker"}, false, "gc"},
		{[]string{"runtime.memmove", "main.digest"}, false, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain"}, true, "gc"},
		{[]string{"repro/internal/newpkg.F"}, true, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames, c.inPass); got != c.want {
			t.Errorf("attribute(%v, %v) = %s, want %s", c.frames, c.inPass, got, c.want)
		}
	}
}

// TestSelfTimesChargesPassLayers: a profile of real passes charges the
// model's layers, and the buckets add up to the sampled total.
func TestSelfTimesChargesPassLayers(t *testing.T) {
	b := tinyBatch(t, "stream")
	r := &result{batch: b, opts: options{seconds: 0.6, trace: 1}}
	r.perLayer()
	if !r.correct() {
		t.Fatalf("traced run failed: %v", r.problems)
	}
	got := map[string]float64{}
	for _, m := range r.metrics {
		got[m.name] = m.value
	}
	if got["profile.sampled_s"] <= 0 || got["sim.self_s"]+got["ecg.self_s"]+got["mac.self_s"] <= 0 {
		t.Fatalf("no model samples: %v", got)
	}
}

func TestMedianAndLoop(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	n := 0
	loop(time.Nanosecond, func() { n++ })
	if n != minPasses {
		t.Errorf("loop ran %d times, want %d", n, minPasses)
	}
}
