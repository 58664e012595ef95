package energy

import (
	"testing"

	"repro/internal/sim"
)

// TestHotPathsAllocateNothing locks in the zero-alloc contract of the
// per-event accounting: a state transition, a loss attribution and the
// battery poll's ledger total.
func TestHotPathsAllocateNothing(t *testing.T) {
	l := NewLedger()
	m := unequalMeter()
	l.Register(m)
	now := m.since
	if n := testing.AllocsPerRun(100, func() {
		now += sim.Microsecond
		m.Transition(now, uRX)
		m.Transition(now, uStandby)
	}); n != 0 {
		t.Fatalf("Meter.Transition allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.AttributeLoss(LossOverhearing, 1e-6)
	}); n != 0 {
		t.Fatalf("Ledger.AttributeLoss allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = l.TotalJ()
	}); n != 0 {
		t.Fatalf("Ledger.TotalJ allocates %v per run", n)
	}
}
