package platform

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIMECDatasheetConstants(t *testing.T) {
	p := IMEC()
	// Values printed in the paper (§3.1, §4.1, §4.2, §5).
	if p.MCU.ActiveA != 2e-3 || p.MCU.PowerSaveA != 0.66e-3 || p.MCU.VoltageV != 2.8 {
		t.Fatalf("MCU electrical constants diverge from the paper: %+v", p.MCU)
	}
	if p.MCU.WakeupLatency != 6*sim.Microsecond {
		t.Fatalf("MCU wakeup = %v, paper says 6us", p.MCU.WakeupLatency)
	}
	if p.Radio.TxA != 17.54e-3 || p.Radio.RxA != 24.82e-3 || p.Radio.VoltageV != 2.8 {
		t.Fatalf("radio electrical constants diverge from the paper: %+v", p.Radio)
	}
	if p.Radio.StandbyA >= 100e-6 {
		t.Fatalf("standby current %v above the paper's 100uA measurement floor", p.Radio.StandbyA)
	}
	if !approx(p.ASIC.PowerW, 10.5e-3, 1e-12) || p.ASIC.Channels != 25 {
		t.Fatalf("ASIC constants diverge from the paper: %+v", p.ASIC)
	}
	if p.MAC.DynamicSlotDuration != 10*sim.Millisecond {
		t.Fatalf("dynamic slot = %v, paper uses 10ms", p.MAC.DynamicSlotDuration)
	}
	if p.MAC.MaxStaticSlots != 5 {
		t.Fatalf("static slots = %d, case study uses a 5-node BAN", p.MAC.MaxStaticSlots)
	}
}

func TestCyclesToTime(t *testing.T) {
	m := MCUParams{ClockHz: 8e6}
	if got := m.CyclesToTime(8000); got != sim.Millisecond {
		t.Fatalf("8000 cycles at 8MHz = %v, want 1ms", got)
	}
	if got := m.CyclesToTime(0); got != 0 {
		t.Fatalf("0 cycles = %v, want 0", got)
	}
	if got := m.CyclesToTime(-5); got != 0 {
		t.Fatalf("negative cycles = %v, want 0", got)
	}
}

func TestAirtime(t *testing.T) {
	r := IMEC().Radio
	// 18B payload + 1+3+2 overhead = 24B = 192 bits at 1Mbps = 192us.
	if got := r.Airtime(18); got != 192*sim.Microsecond {
		t.Fatalf("Airtime(18) = %v, want 192us", got)
	}
	if r.FrameOverheadBytes() != 6 {
		t.Fatalf("frame overhead = %d, want 6", r.FrameOverheadBytes())
	}
}

func TestFIFOTimings(t *testing.T) {
	r := IMEC().Radio
	// 24 bytes at 50kbps clock-in = 3.84ms: the ShockBurst low-rate load
	// that dominates the per-packet MCU cost.
	if got := r.TxClockIn(24); got != 3840*sim.Microsecond {
		t.Fatalf("TxClockIn(24) = %v, want 3.84ms", got)
	}
	// 8-byte beacon payload at 100kbps clock-out = 640us of RX tail.
	if got := r.RxClockOut(8); got != 640*sim.Microsecond {
		t.Fatalf("RxClockOut(8) = %v, want 640us", got)
	}
}

func TestCalibratedStaticBeaconWindow(t *testing.T) {
	// The calibration target from DESIGN.md §5: the static beacon listen
	// window (settle + guard + airtime + payload clock-out) should cost
	// ≈ 0.22 mJ at RX power, i.e. ≈ 3.17 ms receiver-on.
	p := IMEC()
	window := p.Radio.RxSettle + p.MAC.StaticGuard +
		p.Radio.Airtime(p.MAC.BeaconBasePayloadBytes) +
		p.Radio.RxClockOut(p.MAC.BeaconBasePayloadBytes)
	ms := window.Seconds() * 1e3
	if ms < 3.0 || ms > 3.4 {
		t.Fatalf("static beacon window = %.3f ms, calibration target ~3.17 ms", ms)
	}
	mj := p.Radio.RxA * p.Radio.VoltageV * window.Seconds() * 1e3
	if mj < 0.20 || mj > 0.24 {
		t.Fatalf("static beacon window energy = %.4f mJ, target ~0.22", mj)
	}
}

func TestCalibratedPacketCost(t *testing.T) {
	// A data packet (18B payload) should cost ≈ 49 µJ of radio energy:
	// TX settle + airtime at TX power, RX settle + ack wait + ack
	// airtime + ack clock-out at RX power.
	p := IMEC()
	bs := BaseStation()
	txTime := p.Radio.TxSettle + p.Radio.Airtime(18)
	// Base-station turnaround from the node frame's end to the ack's end:
	// drain data FIFO, interrupt-context ack queueing, load ack FIFO,
	// settle, ack airtime.
	ackLatency := bs.Radio.RxClockOut(18) +
		bs.MCU.CyclesToTime(bs.Cost.BSAckTurnaround) +
		bs.Radio.TxClockIn(bs.Radio.AddressBytes+p.MAC.AckPayloadBytes) +
		bs.Radio.TxSettle + bs.Radio.Airtime(p.MAC.AckPayloadBytes)
	// Node receiver-on time: from its frame end until the ack is drained.
	rxTime := ackLatency + p.Radio.RxClockOut(p.MAC.AckPayloadBytes)
	uj := (p.Radio.TxA*txTime.Seconds() + p.Radio.RxA*rxTime.Seconds()) * p.Radio.VoltageV * 1e6
	if uj < 44 || uj > 55 {
		t.Fatalf("per-packet radio cost = %.1f uJ, calibration target ~49", uj)
	}
	// The ack must arrive well inside the node's timeout.
	if ackLatency >= p.MAC.AckTimeout {
		t.Fatalf("ack latency %v exceeds node timeout %v", ackLatency, p.MAC.AckTimeout)
	}
}

func TestCalibratedMCUCycleCosts(t *testing.T) {
	p := IMEC()
	// 2.24ms static beacon handling at 8MHz.
	if got := p.MCU.CyclesToTime(p.Cost.BeaconParseStatic).Milliseconds(); !approx(got, 2.24, 0.03) {
		t.Fatalf("static beacon parse = %.3f ms, target 2.24", got)
	}
	// Streaming sample pair 60us.
	if got := p.MCU.CyclesToTime(p.Cost.SamplePairStreaming).Micros(); !approx(got, 60, 1) {
		t.Fatalf("sample pair = %.1f us, target 60", got)
	}
	// Rpeak detector 154us/channel-sample.
	if got := p.MCU.CyclesToTime(p.Cost.RpeakPerChannelSample).Micros(); !approx(got, 154, 2) {
		t.Fatalf("rpeak sample = %.1f us, target ~154", got)
	}
}

func TestAtClock(t *testing.T) {
	m := IMEC().MCU
	// The anchor point reproduces itself.
	if got := m.AtClock(8e6); !approx(got.ActiveA, 2e-3, 1e-9) {
		t.Fatalf("AtClock(8MHz) active = %v, want 2mA", got.ActiveA)
	}
	// At 1 MHz the dynamic part shrinks 8x; leakage remains.
	low := m.AtClock(1e6)
	want := 0.12e-3 + (2e-3-0.12e-3)/8
	if !approx(low.ActiveA, want, 1e-9) {
		t.Fatalf("AtClock(1MHz) active = %v, want %v", low.ActiveA, want)
	}
	// Computation slows proportionally.
	if low.CyclesToTime(8000) != 8*sim.Millisecond {
		t.Fatalf("8000 cycles at 1MHz = %v, want 8ms", low.CyclesToTime(8000))
	}
	// The power-save floor is clock-independent.
	if low.PowerSaveA != m.PowerSaveA {
		t.Fatalf("power-save current changed with clock")
	}
	// Energy per cycle falls with frequency (leakage amortisation is
	// negative here: the LPM floor dominates, so slower clocks spend
	// LESS energy per unit work while awake longer).
	eHi := m.ActiveA / m.ClockHz
	eLo := low.ActiveA / low.ClockHz
	if eLo <= eHi {
		t.Fatalf("per-cycle charge should rise at low clock: %v vs %v", eLo, eHi)
	}
}

func TestAtClockRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("zero clock did not panic")
		}
	}()
	IMEC().MCU.AtClock(0)
}

func TestMaxPayloadFitsFIFO(t *testing.T) {
	r := IMEC().Radio
	// nRF2401 ShockBurst frame (address+payload+CRC) must fit the
	// 256-bit FIFO; preamble is generated on the fly.
	totalBits := 8 * (r.AddressBytes + r.MaxPayloadBytes + r.CRCBytes)
	if totalBits > 256 {
		t.Fatalf("max frame %d bits exceeds the 256-bit ShockBurst FIFO", totalBits)
	}
}

// TestStateTables checks every component's state table: each index
// constant names the expected state, and the table builds a meter (no
// gaps, no duplicate names).
func TestStateTables(t *testing.T) {
	p := IMEC()
	cases := []struct {
		component string
		state     energy.State
		name      string
		n         int
	}{
		{ComponentMCU, StateMCUActive, "active", 7},
		{ComponentMCU, StateMCUPowerSave, "power-save", 7},
		{ComponentMCU, StateMCULPM4, "lpm4", 7},
		{ComponentMCU, StateMCUOff, "off", 7},
		{ComponentRadio, StateRadioRX, "rx", 4},
		{ComponentRadio, StateRadioOff, "off", 4},
		{ComponentASIC, StateASICOn, "on", 2},
		{ComponentASIC, StateASICOff, "off", 2},
	}
	for _, c := range cases {
		table := p.States(c.component)
		if len(table) != c.n {
			t.Fatalf("%s: %d states, want %d", c.component, len(table), c.n)
		}
		if got := energy.NewMeter(c.component, table).StateName(c.state); got != c.name {
			t.Fatalf("%s state %d is %q, want %q", c.component, c.state, got, c.name)
		}
	}
	if p.States("gps") != nil {
		t.Fatal("unknown component has a state table")
	}
	if d := p.States(ComponentASIC)[StateASICOn].Draw; !approx(d.Power(), p.ASIC.PowerW, 1e-15) {
		t.Fatalf("ASIC on draws %v W, want %v", d.Power(), p.ASIC.PowerW)
	}
}
