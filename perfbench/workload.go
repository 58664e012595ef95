package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mac"
	"repro/internal/paperdata"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// workload is one closed-loop batch: a pass runs every point to
// completion before the next pass starts.
type workload struct {
	name string
	// load builds the workload's inputs from the workload seed. A
	// positive window replaces every point's measurement window (tiny
	// runs in tests); zero keeps the workload's own.
	load func(seed int64, window sim.Time) (*batch, error)
}

var workloads = []workload{
	{"stream", loadStream},
	{"macs", loadMacs},
	{"eeg", loadEEG},
	{"tables", loadTables},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// batch is a workload's generated inputs. Every pass of a run repeats
// them with the same seeds, so every pass must produce the same digest.
type batch struct {
	name string
	// points are the validated configs. Sequential workloads run them
	// one core.Run at a time; for tables they are the regeneration's
	// grid (18 table rows, then the two Figure 4 points), which the
	// traced run drives through runner.RunCtx.
	points []runner.Point
	// simS is the simulated time of one pass: warmup + window summed
	// over the points.
	simS float64
	// tables, when set, makes a pass the cmd/tables regeneration:
	// experiments.ReproduceAll plus experiments.Figure4.
	tables *experiments.Options
	// full marks paper-length windows, where the fidelity bands apply.
	full bool
}

// seedFor is the seed every point of a pass runs with.
func seedFor(seed int64) int64 { return runner.DeriveSeed(seed, 0) }

// scenario loads a scenario file of the repository; the benchmark runs
// from the repository root.
func scenario(file string, seed int64, window sim.Time) (core.Config, error) {
	data, err := os.ReadFile(filepath.Join("scenarios", file))
	if err != nil {
		return core.Config{}, err
	}
	cfg, err := core.ConfigFromJSON(data)
	if err != nil {
		return core.Config{}, fmt.Errorf("%s: %w", file, err)
	}
	cfg.Seed = seedFor(seed)
	if window > 0 {
		cfg.Duration = window
	}
	return cfg, nil
}

// newBatch validates the points (applying the model's defaults, so
// Warmup is known) and sums their simulated time.
func newBatch(name string, points []runner.Point) (*batch, error) {
	b := &batch{name: name, points: points}
	for i := range b.points {
		cfg := &b.points[i].Config
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s: point %s: %w", name, b.points[i].Label, err)
		}
		b.simS += (cfg.Warmup + cfg.Duration).Seconds()
	}
	return b, nil
}

// loadStream is Table 1 row 1 as a scenario file: 5 nodes, static
// TDMA, 30 ms cycle, 205 Hz 2-channel ECG streaming, 60 s window.
func loadStream(seed int64, window sim.Time) (*batch, error) {
	cfg, err := scenario("table1_row1.json", seed, window)
	if err != nil {
		return nil, err
	}
	b, err := newBatch("stream", []runner.Point{{Label: "table1_row1", Config: cfg}})
	if err != nil {
		return nil, err
	}
	b.full = cfg.Duration == paperdata.Window
	return b, nil
}

// loadMacs is the `sweep -mode maccompare` point set: the stream
// workload's BAN at a 20 s window under every registered MAC.
func loadMacs(seed int64, window sim.Time) (*batch, error) {
	if window <= 0 {
		window = 20 * sim.Second
	}
	var points []runner.Point
	for _, p := range mac.Protocols() {
		cfg := core.Config{
			Protocol:     p,
			Nodes:        5,
			Cycle:        30 * sim.Millisecond,
			App:          core.AppStreaming,
			SampleRateHz: 205,
			Duration:     window,
			Warmup:       3 * sim.Second,
			Seed:         seedFor(seed),
		}
		if p == mac.ProtoLPL {
			cfg.Cycle = 0 // paced by the wakeup interval instead
		}
		points = append(points, runner.Point{Label: string(p), Config: cfg})
	}
	return newBatch("macs", points)
}

// loadEEG is the 24-channel EEG summary scenario.
func loadEEG(seed int64, window sim.Time) (*batch, error) {
	cfg, err := scenario("eeg_monitor.json", seed, window)
	if err != nil {
		return nil, err
	}
	return newBatch("eeg", []runner.Point{{Label: "eeg_monitor", Config: cfg}})
}

// tableShape mirrors the scenario shape experiments gives each
// published table; the traced run checks the mirror against the
// regenerated tables, so a drift between the two fails the gate.
var tableShape = map[string]struct {
	variant mac.Variant
	app     core.AppKind
}{
	"table1": {mac.Static, core.AppStreaming},
	"table2": {mac.Dynamic, core.AppStreaming},
	"table3": {mac.Static, core.AppRpeak},
	"table4": {mac.Dynamic, core.AppRpeak},
}

// loadTables is the cmd/tables regeneration at Workers = nproc, as
// cmd/tables defaults to.
func loadTables(seed int64, window sim.Time) (*batch, error) {
	opts := &experiments.Options{Seed: seedFor(seed), Duration: window, Workers: runtime.NumCPU()}
	if window <= 0 {
		window = paperdata.Window
	}
	row := func(id string, r paperdata.Row) runner.Point {
		shape := tableShape[id]
		cfg := core.Config{
			Variant:      shape.variant,
			Nodes:        r.Nodes,
			App:          shape.app,
			SampleRateHz: r.SampleRateHz,
			Duration:     window,
			Seed:         opts.Seed,
		}
		if shape.variant == mac.Static {
			cfg.Cycle = r.Cycle
		}
		return runner.Point{Label: id + "/" + r.Label, Config: cfg}
	}
	var points []runner.Point
	for _, t := range []paperdata.Table{paperdata.Table1(), paperdata.Table2(), paperdata.Table3(), paperdata.Table4()} {
		for _, r := range t.Rows {
			points = append(points, row(t.ID, r))
		}
	}
	points = append(points,
		row("table1", paperdata.Table1().Rows[0]),
		row("table3", paperdata.Table3().Rows[3]))
	b, err := newBatch("tables", points)
	if err != nil {
		return nil, err
	}
	b.tables = opts
	b.full = window == paperdata.Window
	return b, nil
}

// pass is one execution of a batch: what the gate checks and digests.
type pass struct {
	// results and errs are per point (sequential workloads, and the
	// tables grid driven through the runner).
	results []core.Results
	errs    []error
	// tables, bars and err are the regeneration's outputs.
	tables []report.TableReport
	bars   []report.Bar
	err    error
	// spans are the core.Run spans (in completion order for the grid).
	spans []time.Duration
}

// run executes one pass the way the workload's user does. Its
// goroutine, and every goroutine it starts, carries a pprof label so
// the traced run can tell pass samples from the benchmark's own.
func (b *batch) run() *pass {
	p := &pass{}
	pprof.Do(context.Background(), pprof.Labels("perfbench", "pass"), func(ctx context.Context) {
		if b.tables != nil {
			opts := *b.tables
			opts.Ctx = ctx
			p.tables, p.err = experiments.ReproduceAll(opts)
			if p.err == nil {
				p.bars, p.err = experiments.Figure4(opts)
			}
			return
		}
		p.results = make([]core.Results, len(b.points))
		p.errs = make([]error, len(b.points))
		p.spans = make([]time.Duration, len(b.points))
		for i, pt := range b.points {
			t0 := time.Now()
			p.results[i], p.errs[i] = core.Run(pt.Config)
			p.spans[i] = time.Since(t0)
		}
	})
	return p
}

// gridSpans are the runner-boundary spans of one grid drive.
type gridSpans struct {
	runCtx time.Duration // the RunCtx calls
	busy   time.Duration // summed core.Run spans taken through Exec
}

// runGrid drives the tables grid through runner.RunCtx, timing every
// core.Run through runner.Options.Exec. experiments.Options has no
// such hook, so this is how the traced run sees inside the batch.
// Like the regeneration, it runs the table rows as one batch and the
// two Figure 4 points as another, so its straggler idle time matches.
func (b *batch) runGrid() (*pass, gridSpans) {
	p := &pass{}
	var mu sync.Mutex
	exec := func(cfg core.Config) (core.Results, error) {
		t0 := time.Now()
		res, err := core.Run(cfg)
		span := time.Since(t0)
		mu.Lock()
		p.spans = append(p.spans, span)
		mu.Unlock()
		return res, err
	}
	var gs gridSpans
	rows := len(b.points) - 2
	for _, points := range [][]runner.Point{b.points[:rows], b.points[rows:]} {
		t0 := time.Now()
		out := runner.RunCtx(context.Background(), points, runner.Options{Workers: b.tables.Workers, Exec: exec})
		gs.runCtx += time.Since(t0)
		for _, r := range out {
			err := r.Err
			if r.Skipped {
				err = errors.New("skipped: batch cancelled")
			}
			p.results = append(p.results, r.Res)
			p.errs = append(p.errs, err)
		}
	}
	for _, s := range p.spans {
		gs.busy += s
	}
	return p, gs
}
