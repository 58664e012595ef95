package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/sim"
)

// ExtensionResults aggregates the extension-experiment metrics reported
// in EXPERIMENTS.md (the quantities the ablation benches also emit).
type ExtensionResults struct {
	// MCUShareHighHz / LowHz: µC share of radio+µC energy at the Table 1
	// extremes (205 Hz/30 ms and 55 Hz/120 ms).
	MCUShareHighHz, MCUShareLowHz float64
	// ControlShare: control-overhead share of streaming radio energy.
	ControlShare float64
	// Drift: radio energy and missed beacons at crystal (50 ppm) and
	// DCO-grade (3%) clock error, 120 ms cycle.
	CrystalRadioMJ, DCORadioMJ float64
	CrystalMissed, DCOMissed   uint64
	// Clock scaling: Rpeak µC energy at 8/4/1 MHz.
	MCU8MHz, MCU4MHz, MCU1MHz float64
	// Ladder: total (radio+µC) energy of the preprocessing staircase.
	StreamingTotalMJ, RpeakTotalMJ, HRVTotalMJ float64
}

// Extensions runs the extension experiments at the given options. The
// nine underlying simulations are independent, so they go through the
// runner as one batch.
func Extensions(o Options) (ExtensionResults, error) {
	var out ExtensionResults
	add := func(points []runner.Point, label string, cfg core.Config) []runner.Point {
		cfg.Duration = o.window()
		cfg.Seed = o.seed()
		return append(points, runner.Point{Label: label, Config: cfg})
	}

	var points []runner.Point
	points = add(points, "streaming-hi", core.Config{Protocol: mac.ProtoStatic, Nodes: 5,
		Cycle: 30 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 205})
	points = add(points, "streaming-lo", core.Config{Protocol: mac.ProtoStatic, Nodes: 5,
		Cycle: 120 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 55})

	driftCfg := core.Config{Protocol: mac.ProtoStatic, Nodes: 1, Cycle: 120 * sim.Millisecond,
		App: core.AppStreaming, SampleRateHz: 55}
	driftCfg.ClockDriftPPM = 50
	points = add(points, "drift-crystal", driftCfg)
	driftCfg.ClockDriftPPM = 30000
	points = add(points, "drift-dco", driftCfg)

	profiles := make([]platform.Profile, 3)
	for i, hz := range []float64{8e6, 4e6, 1e6} {
		profiles[i] = platform.IMEC()
		profiles[i].MCU = profiles[i].MCU.AtClock(hz)
		points = add(points, fmt.Sprintf("clock-%gMHz", hz/1e6),
			core.Config{Protocol: mac.ProtoStatic, Nodes: 1, Cycle: 120 * sim.Millisecond,
				App: core.AppRpeak, Profile: &profiles[i]})
	}

	points = add(points, "ladder-rpeak", core.Config{Protocol: mac.ProtoStatic, Nodes: 5,
		Cycle: 120 * sim.Millisecond, App: core.AppRpeak})
	points = add(points, "ladder-hrv", core.Config{Protocol: mac.ProtoStatic, Nodes: 5,
		Cycle: 120 * sim.Millisecond, App: core.AppHRV})

	results := runner.RunCtx(o.ctx(), points, runner.Options{Workers: o.Workers})
	if n := runner.Skipped(results); n > 0 {
		// The extension metrics are cross-point ratios; a partial batch
		// has nothing to salvage.
		return out, fmt.Errorf("experiments: interrupted: %d point(s) skipped", n)
	}
	if err := runner.FirstErr(results); err != nil {
		return out, fmt.Errorf("experiments: %w", err)
	}
	node := func(i int) core.NodeResult { return results[i].Res.Node() }

	hi, lo := node(0), node(1)
	out.MCUShareHighHz = hi.MCUMJ() / hi.TotalMJ() * 100
	out.MCUShareLowHz = lo.MCUMJ() / lo.TotalMJ() * 100
	out.ControlShare = hi.Energy.Losses["control-overhead"] * 1e3 / hi.RadioMJ() * 100
	out.StreamingTotalMJ = hi.TotalMJ() * o.scale()

	crystal, dco := node(2), node(3)
	out.CrystalRadioMJ = crystal.RadioMJ() * o.scale()
	out.DCORadioMJ = dco.RadioMJ() * o.scale()
	out.CrystalMissed = crystal.Mac.BeaconsMissed
	out.DCOMissed = dco.Mac.BeaconsMissed

	out.MCU8MHz = node(4).MCUMJ() * o.scale()
	out.MCU4MHz = node(5).MCUMJ() * o.scale()
	out.MCU1MHz = node(6).MCUMJ() * o.scale()

	out.RpeakTotalMJ = node(7).TotalMJ() * o.scale()
	out.HRVTotalMJ = node(8).TotalMJ() * o.scale()
	return out, nil
}

// Render formats the extension results for the terminal.
func (e ExtensionResults) Render() string {
	var b strings.Builder
	b.WriteString("EXTENSION EXPERIMENTS (60 s basis)\n")
	fmt.Fprintf(&b, "  uC share of radio+uC energy: %.1f%% at 205Hz/30ms, %.1f%% at 55Hz/120ms\n",
		e.MCUShareHighHz, e.MCUShareLowHz)
	fmt.Fprintf(&b, "  control overhead share of streaming radio energy: %.1f%%\n", e.ControlShare)
	fmt.Fprintf(&b, "  clock drift @120ms cycle: 50ppm -> %.1f mJ radio, %d missed beacons\n",
		e.CrystalRadioMJ, e.CrystalMissed)
	fmt.Fprintf(&b, "                            3%%    -> %.1f mJ radio, %d missed beacons\n",
		e.DCORadioMJ, e.DCOMissed)
	fmt.Fprintf(&b, "  MCU clock scaling (rpeak uC): 8MHz %.1f mJ, 4MHz %.1f mJ, 1MHz %.1f mJ\n",
		e.MCU8MHz, e.MCU4MHz, e.MCU1MHz)
	fmt.Fprintf(&b, "  preprocessing ladder (radio+uC): streaming %.1f -> rpeak %.1f -> hrv %.1f mJ\n",
		e.StreamingTotalMJ, e.RpeakTotalMJ, e.HRVTotalMJ)
	return b.String()
}
