package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/battery"
	"repro/internal/mac"
	"repro/internal/sim"
)

// steadyStateAllocBudget bounds the heap allocations per dispatched
// kernel event once a run is in steady state. Every recurring kernel
// step — MCU completions, TinyOS tasks, radio and channel steps, the
// ASIC tick, the application ISRs, the MAC timers and the battery poll
// — is bound once per component, so what remains is per-frame data
// that outlives its event: the packed payload the MAC queue holds, the
// base station's received-frame log and the formatted trace details.
const steadyStateAllocBudget = 0.5

// batteryAllocTolerance is how far, relative to the battery-free run,
// a battery-backed run's marginal allocs per event may move. Each
// node's 50 ms poll adds events but must add no allocations, which
// dilutes the figure by under 2%; one allocation per poll would raise
// it by several percent.
const batteryAllocTolerance = 0.02

// TestSteadyStateAllocs measures, for every registered MAC at the
// Table-1 point (5 nodes, 30 ms cycle, 205 Hz two-channel streaming),
// the marginal heap allocations per kernel event: the difference in
// mallocs and in dispatched events between a short and a long window,
// so construction, join and warmup cancel out. A battery-backed static
// TDMA run must stay within batteryAllocTolerance of the battery-free
// one.
func TestSteadyStateAllocs(t *testing.T) {
	for _, proto := range mac.Protocols() {
		t.Run(string(proto), func(t *testing.T) {
			perEvent := marginalAllocs(t, proto, nil)
			if perEvent > steadyStateAllocBudget {
				t.Fatalf("%s: %.3f allocs per steady-state kernel event, budget %.2f",
					proto, perEvent, steadyStateAllocBudget)
			}
		})
	}
	t.Run("static+battery", func(t *testing.T) {
		cell := battery.CR2032()
		free := marginalAllocs(t, mac.ProtoStatic, nil)
		withBattery := marginalAllocs(t, mac.ProtoStatic, &cell)
		if math.Abs(withBattery-free) > batteryAllocTolerance*free {
			t.Fatalf("battery-backed run: %.4f allocs/event, battery-free %.4f: more than %.0f%% apart",
				withBattery, free, batteryAllocTolerance*100)
		}
	})
}

// marginalAllocs reports the marginal heap allocations per kernel event
// of the Table-1 point under proto, optionally battery-backed.
func marginalAllocs(t *testing.T, proto mac.Protocol, cell *battery.Battery) float64 {
	t.Helper()
	short, shortEvents := runMallocs(t, proto, cell, 4*sim.Second)
	long, longEvents := runMallocs(t, proto, cell, 12*sim.Second)
	if longEvents <= shortEvents {
		t.Fatalf("long window dispatched %d events, short %d", longEvents, shortEvents)
	}
	perEvent := float64(int64(long)-int64(short)) / float64(longEvents-shortEvents)
	t.Logf("%s (battery %v): %.4f allocs/event over %d marginal events",
		proto, cell != nil, perEvent, longEvents-shortEvents)
	return perEvent
}

// runMallocs runs the Table-1 point under proto for the given window and
// reports the heap allocations the run made and its kernel event count.
func runMallocs(t *testing.T, proto mac.Protocol, cell *battery.Battery, window sim.Time) (uint64, uint64) {
	t.Helper()
	cfg := Config{
		Protocol: proto, Nodes: 5, Cycle: 30 * sim.Millisecond,
		App: AppStreaming, SampleRateHz: 205, Duration: window, Seed: 1,
		Battery: cell,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.JoinedAll {
		t.Fatalf("%s: nodes failed to join during warmup", proto)
	}
	return after.Mallocs - before.Mallocs, res.KernelEvents
}
