package core

import (
	"runtime"
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
)

// steadyStateAllocBudget bounds the heap allocations per dispatched
// kernel event once a run is in steady state. Every recurring kernel
// step — MCU completions, TinyOS tasks, radio and channel steps, the
// ASIC tick, the application ISRs and the MAC timers — is bound once
// per component, so what remains is per-frame data that outlives its
// event: the packed payload the MAC queue holds, the base station's
// received-frame log and the formatted trace details.
const steadyStateAllocBudget = 0.5

// TestSteadyStateAllocs measures, for every registered MAC at the
// Table-1 point (5 nodes, 30 ms cycle, 205 Hz two-channel streaming),
// the marginal heap allocations per kernel event: the difference in
// mallocs and in dispatched events between a short and a long window,
// so construction, join and warmup cancel out.
func TestSteadyStateAllocs(t *testing.T) {
	for _, proto := range mac.Protocols() {
		t.Run(string(proto), func(t *testing.T) {
			short, shortEvents := runMallocs(t, proto, 4*sim.Second)
			long, longEvents := runMallocs(t, proto, 12*sim.Second)
			if longEvents <= shortEvents {
				t.Fatalf("long window dispatched %d events, short %d", longEvents, shortEvents)
			}
			perEvent := float64(int64(long)-int64(short)) / float64(longEvents-shortEvents)
			t.Logf("%s: %.3f allocs/event over %d marginal events", proto, perEvent, longEvents-shortEvents)
			if perEvent > steadyStateAllocBudget {
				t.Fatalf("%s: %.3f allocs per steady-state kernel event, budget %.2f",
					proto, perEvent, steadyStateAllocBudget)
			}
		})
	}
}

// runMallocs runs the Table-1 point under proto for the given window and
// reports the heap allocations the run made and its kernel event count.
func runMallocs(t *testing.T, proto mac.Protocol, window sim.Time) (uint64, uint64) {
	t.Helper()
	cfg := Config{
		Protocol: proto, Nodes: 5, Cycle: 30 * sim.Millisecond,
		App: AppStreaming, SampleRateHz: 205, Duration: window, Seed: 1,
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
