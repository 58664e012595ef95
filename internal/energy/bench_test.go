package energy

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkMeterTransition measures one power-state change, the
// accounting step every MCU, radio and ASIC mode switch pays.
func BenchmarkMeterTransition(b *testing.B) {
	b.ReportAllocs()
	m := unequalMeter()
	now := m.since
	for i := 0; i < b.N; i++ {
		now += sim.Microsecond
		m.Transition(now, State(i&3))
	}
}
