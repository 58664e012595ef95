// Package mactest is the MAC conformance kit: a table-driven suite
// every protocol registered with internal/mac must pass. A new MAC
// earns its place in the zoo by surviving the same gauntlet the four
// built-in protocols do — join convergence, the runtime audit laws
// (association bookkeeping, airtime/slot containment, frame
// conservation), delivery under the fault injector's crash/blackout/
// interference schedule, compliance with the battery degradation
// cascade, bit-identical determinism across reruns, and worker-count
// invariance through the parallel runner.
//
// Usage from a test:
//
//	func TestMyMAC(t *testing.T) { mactest.Run(t, mac.Protocol("mymac")) }
//
// or mactest.RunAll(t) to sweep every registered protocol plus the
// cross-protocol differential property.
package mactest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The degradation-cascade case's policy rungs, as state-of-charge
// fractions: stretch almost immediately, downshift low, park just
// before brownout — every rung fires inside the kit's short window.
const (
	cascadeStretchSOC    = 0.9
	cascadeDownshiftSOC  = 0.3
	cascadeBeaconOnlySOC = 0.05
)

// Scenario is the kit's reference configuration for one protocol: three
// beat-detection nodes on a clean channel, a measurement window long
// enough for every protocol's cadence (the LPL check interval is the
// slowest), and runtime audits sweeping throughout. Rpeak's ~1.25
// frames/s per node sits comfortably inside every protocol's capacity,
// so delivery differences come from the MAC, not from saturation.
func Scenario(proto mac.Protocol, seed int64) core.Config {
	cfg := core.Config{
		Protocol: proto,
		Nodes:    3,
		App:      core.AppRpeak,
		Duration: 5 * sim.Second,
		Warmup:   3 * sim.Second,
		Seed:     seed,
		Audit:    &audit.Config{Every: 50 * sim.Millisecond},
	}
	if proto == mac.ProtoStatic {
		cfg.Cycle = 30 * sim.Millisecond
	}
	return cfg
}

// mustRun executes the scenario and fails the test on error or on any
// audit-law violation — the floor under every conformance case.
func mustRun(t *testing.T, cfg core.Config) core.Results {
	t.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Audit == nil {
		t.Fatalf("audit summary missing (audits were configured)")
	}
	if res.Audit.Failed() {
		for _, v := range res.Audit.Violations {
			t.Errorf("audit law broken: %s", v)
		}
		t.Fatalf("%d audit violations (%d dropped)", len(res.Audit.Violations), res.Audit.Dropped)
	}
	return res
}

// Run exercises the full conformance suite against one protocol.
func Run(t *testing.T, proto mac.Protocol) {
	if _, ok := mac.Lookup(proto); !ok {
		t.Fatalf("protocol %q is not registered", proto)
	}
	t.Run("join-convergence", func(t *testing.T) { checkJoin(t, proto) })
	t.Run("audit-laws", func(t *testing.T) { checkAuditLaws(t, proto) })
	t.Run("fault-resilience", func(t *testing.T) { checkFaults(t, proto) })
	t.Run("degradation-cascade", func(t *testing.T) { checkDegradation(t, proto) })
	t.Run("determinism", func(t *testing.T) { checkDeterminism(t, proto) })
	t.Run("worker-invariance", func(t *testing.T) { checkWorkerInvariance(t, proto) })
}

// RunAll sweeps every registered protocol through the suite, then runs
// the cross-protocol differential property.
func RunAll(t *testing.T) {
	for _, proto := range mac.Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) { Run(t, proto) })
	}
	t.Run("differential", checkDifferential)
}

// checkJoin: every node associates during warmup and stays associated
// through a fault-free window.
func checkJoin(t *testing.T, proto mac.Protocol) {
	res := mustRun(t, Scenario(proto, 11))
	if !res.JoinedAll {
		t.Fatalf("not all nodes joined within the %v warmup", res.Config.Warmup)
	}
	for _, n := range res.Nodes {
		if n.Availability < 0.99 {
			t.Errorf("%s: availability %.3f over a fault-free window, want ~1", n.Name, n.Availability)
		}
		if n.Mac.DataSent == 0 {
			t.Errorf("%s: sent no data frames", n.Name)
		}
	}
	if res.BSStats.DataReceived == 0 {
		t.Fatalf("base station received no data")
	}
}

// checkAuditLaws: the runtime audit engine sweeps the protocol's law
// set — association bookkeeping (no double grant / membership
// bijection), slot or channel-access containment, frame conservation,
// generation monotonicity — every 50 ms and once at run end, and no law
// may break. mustRun enforces the summary; this case additionally
// demands the frames actually balanced to nonzero counts so a silently
// idle MAC cannot pass by never transmitting.
func checkAuditLaws(t *testing.T, proto mac.Protocol) {
	res := mustRun(t, Scenario(proto, 23))
	var sent, acked uint64
	for _, n := range res.Nodes {
		sent += n.Mac.DataSent
		acked += n.Mac.DataAcked
	}
	if sent == 0 || acked == 0 {
		t.Fatalf("audit pass is vacuous: sent=%d acked=%d", sent, acked)
	}
	if res.Audit.Checks == 0 {
		t.Fatalf("audit engine performed no checks")
	}
}

// checkFaults: a crash with reboot, a directed blackout and an
// interference burst land mid-window; the protocol must readmit the
// crashed node, keep the books balanced through every transition, and
// still deliver data.
func checkFaults(t *testing.T, proto mac.Protocol) {
	cfg := faultScenario(proto)
	res := mustRun(t, cfg)
	if len(res.Faults) != len(cfg.Faults) {
		t.Fatalf("%d fault outcomes for %d faults", len(res.Faults), len(cfg.Faults))
	}
	crashed := res.Nodes[0]
	if crashed.Availability >= 0.999 {
		t.Errorf("crashed node availability %.3f — the outage left no trace", crashed.Availability)
	}
	if crashed.Availability < 0.5 {
		t.Errorf("crashed node availability %.3f: never readmitted after reboot", crashed.Availability)
	}
	if !res.Faults[0].Rejoined {
		t.Errorf("crashed node did not rejoin before run end")
	}
	for _, n := range res.Nodes {
		if n.Mac.DataSent == 0 {
			t.Errorf("%s: sent nothing through the fault window", n.Name)
		}
		if n.DeliveryRatio < 0.5 {
			t.Errorf("%s: delivery ratio %.2f under faults, want >= 0.5", n.Name, n.DeliveryRatio)
		}
	}
}

// faultScenario is the fault-resilience case's configuration: a crash
// with reboot, a directed blackout and an interference burst.
func faultScenario(proto mac.Protocol) core.Config {
	cfg := Scenario(proto, 37)
	cfg.Faults = []fault.Fault{
		{Kind: fault.KindCrash, Node: 1, At: 4 * sim.Second, RebootAfter: 500 * sim.Millisecond},
		{Kind: fault.KindBlackout, From: "node2", To: "bs", At: 5500 * sim.Millisecond, Until: 6 * sim.Second},
		{Kind: fault.KindInterference, At: 6500 * sim.Millisecond, Until: 6800 * sim.Millisecond},
	}
	return cfg
}

// checkDegradation: each node runs from a live cell sized — from a
// fault-free calibration run of the same scenario — to deplete about
// halfway through the window, so the state of charge sweeps every
// watermark of the degradation ladder. The MAC must honour the stretch
// and beacon-only hooks while the battery conservation laws hold, and
// the cell must actually brown the node out.
func checkDegradation(t *testing.T, proto mac.Protocol) {
	res := mustRun(t, cascadeScenario(t, proto))
	if res.TimeToFirstDeath == 0 {
		t.Fatalf("no node browned out on a cell sized to die mid-window")
	}
	var skipped uint64
	died := 0
	for _, n := range res.Nodes {
		if n.Battery == nil {
			t.Fatalf("%s: no battery report", n.Name)
		}
		skipped += n.Mac.SlotsSkipped
		if n.Battery.Died {
			died++
		}
		if n.Battery.Died && n.Battery.Level != battery.LevelDead {
			t.Errorf("%s: died with level %s", n.Name, n.Battery.LevelName)
		}
	}
	if skipped == 0 {
		t.Errorf("stretch rung engaged on no node: SetSlotStretch is not honoured")
	}
	if died == 0 {
		t.Errorf("no battery report shows a death despite TimeToFirstDeath=%v", res.TimeToFirstDeath)
	}
}

// cascadeScenario is the degradation-cascade case's configuration: a
// cell sized from a fault-free calibration run to deplete about halfway
// through the window, under a policy whose every rung fires.
func cascadeScenario(t *testing.T, proto mac.Protocol) core.Config {
	probe := mustRun(t, Scenario(proto, 41))
	var maxJ float64
	for _, n := range probe.Nodes {
		if j := n.Energy.TotalJ; j > maxJ {
			maxJ = j
		}
	}
	if maxJ <= 0 {
		t.Fatalf("calibration run drew no energy")
	}

	cfg := Scenario(proto, 41)
	// Warmup draw debits the cell too, so size against the full span.
	span := (cfg.Warmup + cfg.Duration).Seconds() / cfg.Duration.Seconds()
	usable := maxJ * span * 0.5
	cell := battery.CR2032()
	cell.CapacityMAh *= usable / cell.UsableJ()
	// Stretch engages almost immediately and skips every other
	// opportunity, so even a sparse sender (LPL strobes only when it has
	// a frame) exercises the rung before the cell dies.
	policy := battery.DegradePolicy{
		StretchSOC:    cascadeStretchSOC,
		StretchEvery:  2,
		DownshiftSOC:  cascadeDownshiftSOC,
		BeaconOnlySOC: cascadeBeaconOnlySOC,
	}
	cfg.Battery = &cell
	cfg.Degrade = &policy
	return cfg
}

// checkDeterminism: the same (Config, Seed) must reproduce byte for
// byte — energy, statistics, trace, audit summary, fault outcomes.
func checkDeterminism(t *testing.T, proto mac.Protocol) {
	cfg := Scenario(proto, 53)
	cfg.Metrics = true
	cfg.Faults = []fault.Fault{
		{Kind: fault.KindCrash, Node: 2, At: 4 * sim.Second, RebootAfter: 300 * sim.Millisecond},
	}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same (Config, Seed) differ")
	}
}

// checkWorkerInvariance: a batch containing the protocol's scenario
// must produce identical results at any worker count — MAC state must
// never leak across runs through shared package state.
func checkWorkerInvariance(t *testing.T, proto mac.Protocol) {
	var points []runner.Point
	for i := 0; i < 4; i++ {
		points = append(points, runner.Point{
			Label:  fmt.Sprintf("seed=%d", i),
			Config: Scenario(proto, runner.DeriveSeed(67, i)),
		})
	}
	baseline := runner.Run(points, runner.Options{Workers: 1})
	if err := runner.FirstErr(baseline); err != nil {
		t.Fatal(err)
	}
	parallel := runner.Run(points, runner.Options{Workers: 4})
	if !reflect.DeepEqual(baseline, parallel) {
		t.Fatalf("results at workers=4 differ from workers=1")
	}
}

// checkDifferential is the cross-protocol property: the same scenario
// under every registered MAC satisfies each protocol's own law set, all
// of them deliver every node's traffic, and the protocol-specific
// counters agree with the declared capabilities (a slotted MAC performs
// no channel assessments, a contention MAC never holds a slot table,
// only beaconless MACs strobe).
func checkDifferential(t *testing.T) {
	for _, proto := range mac.Protocols() {
		desc, _ := mac.Lookup(proto)
		res := mustRun(t, Scenario(proto, 97))
		if !res.JoinedAll {
			t.Errorf("%s: not all nodes joined", proto)
			continue
		}
		for _, n := range res.Nodes {
			if n.Mac.DataAcked == 0 {
				t.Errorf("%s/%s: no data acknowledged", proto, n.Name)
			}
			hasCCA := n.Mac.CCAAttempts > 0
			hasStrobes := n.Mac.StrobesSent > 0
			hasBeacons := n.Mac.BeaconsHeard > 0
			if desc.Caps.Slotted && (hasCCA || hasStrobes) {
				t.Errorf("%s/%s: slotted MAC with contention counters (cca=%d strobes=%d)",
					proto, n.Name, n.Mac.CCAAttempts, n.Mac.StrobesSent)
			}
			if !desc.Caps.Contention && !hasBeacons {
				t.Errorf("%s/%s: slotted MAC heard no beacons", proto, n.Name)
			}
			if hasBeacons != desc.Caps.Beacons {
				t.Errorf("%s/%s: beacons heard=%v but capability says %v",
					proto, n.Name, hasBeacons, desc.Caps.Beacons)
			}
			if proto == mac.ProtoCSMA && !hasCCA {
				t.Errorf("%s/%s: CSMA performed no channel assessments", proto, n.Name)
			}
			if proto == mac.ProtoLPL && !hasStrobes {
				t.Errorf("%s/%s: LPL sent no strobes", proto, n.Name)
			}
		}
	}
}
