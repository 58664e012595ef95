// Package mcu models the TI MSP430F149 microcontroller of the sensor
// node: a single in-order execution resource with per-state power draw.
//
// Following the paper's §4.1, the microcontroller is not simulated at the
// instruction level (that would blow up simulation time); instead each
// OS/application activity carries a calibrated cycle count and the MCU is
// a serialising executor that integrates E = I·Vdd·t over its active /
// power-save residency. Execution requests are serviced strictly in
// arrival order (run-to-completion, like the TinyOS task model layered on
// top of it), and the MCU drops into the scheduler-selected low-power
// mode whenever the work queue drains.
package mcu

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// MCU is the microcontroller model. Not safe for concurrent use: it lives
// on the simulation goroutine.
type MCU struct {
	k      *sim.Kernel
	params platform.MCUParams
	meter  *energy.Meter

	busyUntil  sim.Time
	sleeping   bool
	sleepState energy.State
	// gen invalidates queued completion events across a crash: each
	// carries the generation it was issued under as its kernel arg and
	// applies its effects only while that generation is still current.
	gen uint64
	// pending holds the queued computations in issue order. Work is
	// serialised, so completions fire in busyUntil order and each
	// completion event belongs to the head; onComplete is m.complete
	// bound once, so queuing work allocates nothing.
	pending    []completion
	onComplete sim.ArgHandler

	execs      uint64
	cyclesRun  int64
	activeTime sim.Time
}

// New creates an MCU, registers its energy meter on the ledger and starts
// it in the power-save state at the kernel's current instant.
func New(k *sim.Kernel, params platform.MCUParams, ledger *energy.Ledger) *MCU {
	meter := energy.NewMeter(platform.ComponentMCU, params.States())
	ledger.Register(meter)
	meter.Start(k.Now(), platform.StateMCUPowerSave)
	m := &MCU{
		k:          k,
		params:     params,
		meter:      meter,
		busyUntil:  k.Now(),
		sleeping:   true,
		sleepState: platform.StateMCUPowerSave,
	}
	m.onComplete = m.complete
	return m
}

// completion is one queued computation: its completion instant and the
// callback to run then.
type completion struct {
	end  sim.Time
	done func()
}

// Params reports the electrical parameters the MCU was built with.
func (m *MCU) Params() platform.MCUParams { return m.params }

// SetSleepState selects which low-power mode the MCU enters when idle.
// This is the hook the TinyOS power policy uses; the paper's workloads
// always select the first power-save mode.
func (m *MCU) SetSleepState(s energy.State) {
	switch s {
	case platform.StateMCUPowerSave, platform.StateMCULPM1,
		platform.StateMCULPM2, platform.StateMCULPM3, platform.StateMCULPM4:
	default:
		panic(fmt.Sprintf("mcu: %q is not a sleep state", m.meter.StateName(s)))
	}
	m.sleepState = s
	if m.sleeping {
		m.meter.Transition(m.k.Now(), s)
	}
}

// Busy reports whether the MCU is currently executing (or has queued
// work).
func (m *MCU) Busy() bool { return m.k.Now() < m.busyUntil }

// Execs reports how many execution requests have been issued.
func (m *MCU) Execs() uint64 { return m.execs }

// CyclesRun reports the total instruction cycles executed.
func (m *MCU) CyclesRun() int64 { return m.cyclesRun }

// ActiveTime reports the cumulative time spent in the active state.
func (m *MCU) ActiveTime() sim.Time { return m.activeTime }

// ResetAccounting zeroes the MCU's execution counters (not its meter;
// reset that through the ledger).
func (m *MCU) ResetAccounting() {
	m.execs = 0
	m.cyclesRun = 0
	m.activeTime = 0
}

// Exec queues cycles of computation. The work starts immediately if the
// MCU is idle (after the wakeup ramp if it was sleeping) or after all
// previously queued work otherwise; done (if non-nil) runs at completion,
// on the simulation goroutine. Exec returns the completion instant.
func (m *MCU) Exec(cycles int64, done func()) sim.Time {
	return m.execFor(m.params.CyclesToTime(cycles), cycles, done)
}

// ExecDur queues computation lasting an explicit wall duration, used for
// timed programmed-I/O loops such as the ShockBurst FIFO clock-in where
// the bus rate, not the instruction count, sets the pace.
func (m *MCU) ExecDur(d sim.Time, done func()) sim.Time {
	if d < 0 {
		panic("mcu: negative duration")
	}
	cycles := int64(float64(d) / float64(sim.Second) * m.params.ClockHz)
	return m.execFor(d, cycles, done)
}

// execFor queues one computation behind any work in progress and arms
// its completion.
//
//hot:path
func (m *MCU) execFor(dur sim.Time, cycles int64, done func()) sim.Time {
	now := m.k.Now()
	m.execs++
	m.cyclesRun += cycles

	start := now
	if m.busyUntil > now {
		start = m.busyUntil
	} else if m.sleeping {
		// Waking from a low-power mode costs the stand-by→active ramp;
		// the core draws active current during the ramp.
		dur += m.params.WakeupLatency
		m.sleeping = false
		m.meter.Transition(now, platform.StateMCUActive)
	}
	end := start + dur
	m.busyUntil = end
	m.activeTime += dur

	m.pending = append(m.pending, completion{end: end, done: done})
	m.k.ScheduleArg(end, m.onComplete, m.gen)
	return end
}

// complete finishes the head computation: its callback runs, and the
// core sleeps if the callback queued nothing further. A completion
// issued before a crash carries a stale generation and does nothing —
// that computation never completed.
//
//hot:path
func (m *MCU) complete(_ *sim.Kernel, gen uint64) {
	if gen != m.gen {
		return
	}
	c := m.pending[0]
	n := copy(m.pending, m.pending[1:])
	m.pending[n] = completion{}
	m.pending = m.pending[:n]
	if c.done != nil {
		c.done()
	}
	if m.busyUntil == c.end && !m.sleeping {
		m.sleeping = true
		m.meter.Transition(c.end, m.sleepState)
	}
}

// Crash models a node power loss: all queued computation is abandoned
// (its completion callbacks never run), and the core stops drawing
// current until Reboot. ActiveTime keeps the already-charged estimate of
// the aborted work; the energy meter — the accounting source of truth —
// is cut off at the crash instant.
func (m *MCU) Crash() {
	m.gen++
	clear(m.pending)
	m.pending = m.pending[:0]
	m.busyUntil = m.k.Now()
	m.sleeping = true
	m.meter.Transition(m.k.Now(), platform.StateMCUOff)
}

// Reboot restores the core after a Crash: it comes up in the configured
// sleep state, ready for the boot code's first Exec.
func (m *MCU) Reboot() {
	m.meter.Transition(m.k.Now(), m.sleepState)
}
