// Package experiments regenerates every table and figure of the paper's
// evaluation section: it runs the event simulator and the closed-form
// analytic model at each published sweep point and assembles the
// comparison tables (paper Real, paper Sim, our simulator, our analytic).
//
// Simulation points are independent, so each regeneration batches its
// grid through the parallel runner (Options.Workers); results are
// identical at any worker count.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/paperdata"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Options tunes a reproduction run.
type Options struct {
	// Seed drives the simulations (default 1).
	Seed int64
	// Duration overrides the paper's 60 s window (0 keeps it). Shorter
	// windows speed up smoke runs; energies scale almost linearly.
	Duration sim.Time
	// Workers is the number of concurrent simulations (0 = all cores,
	// 1 = sequential). Worker count never changes the numbers, only the
	// wall-clock time.
	Workers int
	// Ctx cancels the batch (nil = background). Points still pending
	// when it fires are skipped; completed rows are salvaged into a
	// partial table whose missing rows carry the omission reason.
	Ctx context.Context
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) window() sim.Time {
	if o.Duration > 0 {
		return o.Duration
	}
	return paperdata.Window
}

func (o Options) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

// tableSpec binds a published table to its scenario shape.
type tableSpec struct {
	data  paperdata.Table
	proto mac.Protocol
	app   core.AppKind
}

func specFor(id string) (tableSpec, error) {
	switch id {
	case "table1":
		return tableSpec{paperdata.Table1(), mac.ProtoStatic, core.AppStreaming}, nil
	case "table2":
		return tableSpec{paperdata.Table2(), mac.ProtoDynamic, core.AppStreaming}, nil
	case "table3":
		return tableSpec{paperdata.Table3(), mac.ProtoStatic, core.AppRpeak}, nil
	case "table4":
		return tableSpec{paperdata.Table4(), mac.ProtoDynamic, core.AppRpeak}, nil
	default:
		return tableSpec{}, fmt.Errorf("experiments: unknown table %q", id)
	}
}

// TableIDs lists the reproducible tables in paper order.
func TableIDs() []string { return []string{"table1", "table2", "table3", "table4"} }

// rowConfig shapes one sweep point's scenario.
func rowConfig(spec tableSpec, row paperdata.Row, o Options) core.Config {
	cfg := core.Config{
		Protocol:     spec.proto,
		Nodes:        row.Nodes,
		App:          spec.app,
		SampleRateHz: row.SampleRateHz,
		Duration:     o.window(),
		Seed:         o.seed(),
	}
	if spec.proto == mac.ProtoStatic {
		cfg.Cycle = row.Cycle
	}
	return cfg
}

// gridPoint pairs a runner point with the table row it came from.
type gridPoint struct {
	spec tableSpec
	row  paperdata.Row
}

// simRow is one grid point's outcome: the reference node's result, or
// the reason it is missing (failed point, incomplete join, or a point
// skipped because the batch was cancelled).
type simRow struct {
	node core.NodeResult
	omit string
}

// simulateGrid fans the points out across the runner and returns one
// row per point, in input order. Failed or skipped points come back as
// omitted rows instead of aborting the batch, so an interrupted or
// partly broken grid still renders the completed rows.
func simulateGrid(grid []gridPoint, o Options) []simRow {
	points := make([]runner.Point, len(grid))
	for i, g := range grid {
		points[i] = runner.Point{Label: g.row.Label, Config: rowConfig(g.spec, g.row, o)}
	}
	results := runner.RunCtx(o.ctx(), points, runner.Options{Workers: o.Workers})
	out := make([]simRow, len(results))
	for i, r := range results {
		switch {
		case r.Skipped:
			out[i].omit = "skipped: interrupted"
		case r.Err != nil:
			out[i].omit = r.Err.Error()
		case !r.Res.JoinedAll:
			// Every point must have completed its joins by measurement
			// start for the energy columns to be comparable.
			out[i].omit = "join incomplete"
		default:
			out[i].node = r.Res.Node()
		}
	}
	return out
}

// completeGrid is simulateGrid for the callers that cannot salvage a
// partial batch: the first omitted row becomes an error.
func completeGrid(grid []gridPoint, o Options) ([]core.NodeResult, error) {
	rows := simulateGrid(grid, o)
	out := make([]core.NodeResult, len(rows))
	for i, r := range rows {
		if r.omit != "" {
			return nil, fmt.Errorf("experiments: %s: %s", grid[i].row.Label, r.omit)
		}
		out[i] = r.node
	}
	return out, nil
}

// analyticRow evaluates the closed-form model at one sweep point.
func analyticRow(spec tableSpec, row paperdata.Row, o Options) (analytic.Estimate, error) {
	return analytic.Compute(analytic.Scenario{
		Protocol:     spec.proto,
		Nodes:        row.Nodes,
		Cycle:        row.Cycle,
		App:          string(spec.app),
		SampleRateHz: row.SampleRateHz,
		Duration:     o.window(),
	})
}

// scale converts a sub-window measurement back to the paper's 60 s basis
// so the comparison columns stay commensurable.
func (o Options) scale() float64 {
	return float64(paperdata.Window) / float64(o.window())
}

// assembleTable builds one comparison table from the per-row simulator
// results (the analytic model is cheap and runs inline). Omitted rows
// keep their paper columns and carry the omission reason instead of
// simulator numbers.
func assembleTable(spec tableSpec, sims []simRow, o Options) (report.TableReport, error) {
	out := report.TableReport{ID: spec.data.ID, Caption: spec.data.Caption}
	for i, row := range spec.data.Rows {
		cmp := report.Comparison{
			Label:       row.Label,
			CycleMS:     row.Cycle.Milliseconds(),
			RadioRealMJ: row.RadioRealMJ,
			RadioSimMJ:  row.RadioSimMJ,
			MCURealMJ:   row.MCURealMJ,
			MCUSimMJ:    row.MCUSimMJ,
			Omitted:     sims[i].omit,
		}
		if cmp.Omitted == "" {
			an, err := analyticRow(spec, row, o)
			if err != nil {
				return report.TableReport{}, err
			}
			s := o.scale()
			nr := sims[i].node
			cmp.OursRadioMJ = nr.RadioMJ() * s
			cmp.OursMCUMJ = nr.MCUMJ() * s
			cmp.AnalyticRadioMJ = an.RadioMJ() * s
			cmp.AnalyticMCUMJ = an.MCUMJ() * s
		}
		out.Rows = append(out.Rows, cmp)
	}
	return out, nil
}

// Reproduce regenerates one published table, its rows fanned out across
// the runner. Failed or skipped points surface as omitted rows in a
// partial table, not as an error.
func Reproduce(id string, o Options) (report.TableReport, error) {
	spec, err := specFor(id)
	if err != nil {
		return report.TableReport{}, err
	}
	grid := make([]gridPoint, len(spec.data.Rows))
	for i, row := range spec.data.Rows {
		grid[i] = gridPoint{spec, row}
	}
	return assembleTable(spec, simulateGrid(grid, o), o)
}

// ReproduceAll regenerates the four tables. All rows of all tables are
// flattened into a single runner batch, so the full evaluation grid
// (18 simulations) keeps every worker busy. When Options.Ctx fires
// mid-batch the completed rows are still assembled; the rest render as
// omitted rows of partial tables.
func ReproduceAll(o Options) ([]report.TableReport, error) {
	var grid []gridPoint
	var specs []tableSpec
	for _, id := range TableIDs() {
		spec, err := specFor(id)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
		for _, row := range spec.data.Rows {
			grid = append(grid, gridPoint{spec, row})
		}
	}
	sims := simulateGrid(grid, o)
	var out []report.TableReport
	off := 0
	for _, spec := range specs {
		n := len(spec.data.Rows)
		t, err := assembleTable(spec, sims[off:off+n], o)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		off += n
	}
	return out, nil
}

// Figure4 reproduces the streaming-vs-Rpeak comparison: the 205 Hz/30 ms
// streaming point against the 120 ms on-node Rpeak point, as stacked
// radio+µC bars.
func Figure4(o Options) ([]report.Bar, error) {
	sSpec, _ := specFor("table1")
	rSpec, _ := specFor("table3")
	sims, err := completeGrid([]gridPoint{
		{sSpec, paperdata.Table1().Rows[0]},
		{rSpec, paperdata.Table3().Rows[3]},
	}, o)
	if err != nil {
		return nil, err
	}
	s := o.scale()
	return []report.Bar{
		{Label: "ECG streaming (30ms)", RadioMJ: sims[0].RadioMJ() * s, MCUMJ: sims[0].MCUMJ() * s},
		{Label: "Rpeak on node (120ms)", RadioMJ: sims[1].RadioMJ() * s, MCUMJ: sims[1].MCUMJ() * s},
	}, nil
}
