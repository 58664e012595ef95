// Package node composes the full sensor-node stack of Figure 1 — ASIC
// driver, radio driver, TinyOS kernel, MAC, application — and the base
// station, wiring each hardware model to its energy meter on the node's
// ledger.
package node

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/asic"
	"repro/internal/battery"
	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// batteryPollInterval is how often a battery-powered node settles its
// ledger into the coulomb counter. It bounds the detection latency of
// every watermark crossing; the debit amounts themselves are exact
// regardless (the ledger integrates continuously).
const batteryPollInterval = 50 * sim.Millisecond

// Sensor is one wireless sensor node.
type Sensor struct {
	Name    string
	ID      uint8
	Profile platform.Profile

	Ledger   *energy.Ledger
	MCU      *mcu.MCU
	Sched    *tinyos.Sched
	Radio    *radio.Radio
	Frontend *asic.Frontend
	Mac      mac.NodeMAC
	App      app.App
	// Bat is the node's live battery; nil when the scenario runs the
	// historical always-powered model.
	Bat *battery.State

	k          *sim.Kernel
	tracer     *metrics.Recorder
	onBrownout func()
	// onPoll is s.pollBattery bound once, so the recurring battery poll
	// allocates nothing.
	onPoll sim.ArgHandler
}

// SensorConfig describes one sensor build.
type SensorConfig struct {
	// MAC configures the node-side MAC; its NodeID and Profile are also
	// the node's ID and hardware profile.
	MAC mac.NodeConfig
	// Name is the node's medium identifier; empty selects "node<id>".
	// Several BANs sharing one channel need distinct names.
	Name string
	// Battery, when non-nil, powers the node from its own instance of
	// this cell: the energy ledger is debited into a live coulomb
	// counter as the run progresses, the node browns out (crashes for
	// good) when the terminal voltage falls below BrownoutV (0 = the
	// cell's default cutoff), and Degrade — which may be nil — degrades
	// the node gracefully on the way down.
	Battery   *battery.Battery
	BrownoutV float64
	Degrade   *battery.DegradePolicy
}

// NewSensor builds the hardware/OS/MAC stack for cfg on the shared
// medium. Attach an application with AttachApp before Start.
func NewSensor(k *sim.Kernel, ch *channel.Channel, tracer *metrics.Recorder, cfg SensorConfig) *Sensor {
	id, prof := cfg.MAC.NodeID, cfg.MAC.Profile
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("node%d", id)
	}
	ledger := energy.NewLedger()
	m := mcu.New(k, prof.MCU, ledger)
	sched := tinyos.NewSched(k, m, 0)
	r := radio.New(k, name, prof.Radio, ch, sched, ledger, tracer)
	fe := asic.New(k, prof.ASIC, ledger)
	nm := mac.NewNode(k, cfg.MAC, sched, r, ledger, tracer)
	s := &Sensor{
		Name:     name,
		ID:       id,
		Profile:  prof,
		Ledger:   ledger,
		MCU:      m,
		Sched:    sched,
		Radio:    r,
		Frontend: fe,
		Mac:      nm,
		App:      nil,
		k:        k,
		tracer:   tracer,
	}
	if cfg.Battery != nil {
		s.Bat = battery.NewState(*cfg.Battery, cfg.BrownoutV, cfg.Degrade, k.Now())
		s.onPoll = s.pollBattery
	}
	return s
}

// AttachApp installs the application the factory builds over this
// node's facilities.
func (s *Sensor) AttachApp(build func(env app.Env) app.App) {
	if s.App != nil {
		panic("node: application already attached")
	}
	s.App = build(app.Env{
		Sched:    s.Sched,
		Frontend: s.Frontend,
		Mac:      s.Mac,
		Cost:     s.Profile.Cost,
		Tracer:   s.tracer,
		NodeName: s.Name,
	})
}

// OnBrownout registers a callback fired once when the node's battery
// browns out (after the crash has been executed). The core layer uses it
// to record the emergent fault in the injector's outcome list.
func (s *Sensor) OnBrownout(fn func()) { s.onBrownout = fn }

// Start powers the node on: the MAC begins its join procedure and the
// application starts once a slot is granted.
func (s *Sensor) Start() {
	if s.App == nil {
		panic("node: Start before AttachApp")
	}
	s.Mac.OnJoined(func() { s.App.Start() })
	s.Mac.Start()
	if s.Bat != nil {
		s.k.ScheduleArg(s.k.Now()+batteryPollInterval, s.onPoll, 0)
	}
}

// pollBattery settles the ledger into the coulomb counter on a fixed
// cadence. The chain survives injected crash/reboot cycles (a powered-
// off node draws ~nothing, so the debits are near-zero) and ends only
// when the battery browns out.
func (s *Sensor) pollBattery(k *sim.Kernel, _ uint64) {
	if s.Bat.Dead() {
		return
	}
	if s.settleBattery(k.Now()) {
		return // browned out: the node is gone for the rest of the run
	}
	k.ScheduleArg(k.Now()+batteryPollInterval, s.onPoll, 0)
}

// settleBattery flushes the ledger, debits the battery and applies any
// degradation transition. It reports whether the node just browned out.
func (s *Sensor) settleBattery(now sim.Time) bool {
	s.Ledger.Flush(now)
	tr := s.Bat.Debit(now, s.Ledger.TotalJ())
	if tr.To == tr.From {
		return false
	}
	if tr.From > battery.LevelNormal && tr.TimeInFrom > 0 {
		s.tracer.Observe(s.Name, metrics.HistDegraded, tr.TimeInFrom)
	}
	if tr.Died {
		s.tracer.Recordf(now, s.Name, metrics.KindBrownout, "v=%.2f soc=%.1f%%",
			s.Bat.VoltageV(), s.Bat.SOC()*100)
		s.Crash()
		if s.onBrownout != nil {
			s.onBrownout()
		}
		return true
	}
	p := s.Bat.Policy()
	for lvl := tr.From + 1; lvl <= tr.To; lvl++ {
		switch lvl {
		case battery.LevelStretch:
			s.Mac.SetSlotStretch(p.StretchEvery)
		case battery.LevelDownshift:
			if d, ok := s.App.(app.Downshifter); ok {
				d.Downshift(p.DownshiftFactor)
			}
		case battery.LevelBeaconOnly:
			if s.App != nil {
				s.App.Stop()
			}
			s.Mac.EnterBeaconOnly()
		case battery.LevelNormal, battery.LevelDead:
			// Unreachable by construction: the walk starts at
			// tr.From+1 >= LevelStretch, and a transition into
			// LevelDead sets tr.Died, which returned above. Reaching
			// either is a battery state-machine bug.
			panic("node: degradation walk reached " + lvl.String() + " without a brownout")
		}
		s.tracer.Recordf(now, s.Name, metrics.KindDegrade, "level=%s soc=%.1f%%",
			lvl, s.Bat.SOC()*100)
	}
	return false
}

// FinalizeBattery settles the outstanding ledger draw, closes the open
// degraded-level interval in the histogram and snapshots the battery
// report (nil when the node has no battery).
func (s *Sensor) FinalizeBattery(now sim.Time) *battery.Report {
	if s.Bat == nil {
		return nil
	}
	if !s.Bat.Dead() {
		s.settleBattery(now)
	}
	if lvl := s.Bat.Level(); lvl > battery.LevelNormal && lvl < battery.LevelDead {
		if open := now - s.Bat.LevelSince(); open > 0 {
			s.tracer.Observe(s.Name, metrics.HistDegraded, open)
		}
	}
	rep := s.Bat.Snapshot(now)
	return &rep
}

// Crash models a sudden power loss: the application stops sampling, the
// MAC forgets its slot and queue, any frame mid-burst is truncated on the
// air, and every queued computation is abandoned. Statistics counters
// survive (they are the experimenter's instruments, not node state); the
// energy meters record the outage as zero draw.
func (s *Sensor) Crash() {
	if s.App != nil {
		s.App.Stop()
	}
	s.Frontend.Stop()
	s.Mac.Crash()
	s.Radio.Crash()
	s.MCU.Crash()
}

// Reboot cold-boots the node after a Crash: the MCU comes back up and the
// MAC restarts its join procedure from beacon search, exactly like the
// initial power-on. The OnJoined hooks registered at Start still stand,
// so the application resumes once a slot is granted again.
func (s *Sensor) Reboot() {
	s.MCU.Reboot()
	s.Mac.Start()
}

// ResetAccounting zeroes every energy and statistics accumulator at
// instant now, so a measurement window excludes the join transient.
func (s *Sensor) ResetAccounting(now sim.Time) {
	s.Ledger.Flush(now)
	if s.Bat != nil {
		// Settle the pre-reset draw into the battery (warmup energy is
		// real charge spent), then realign the diff baseline with the
		// ledger's restart.
		if !s.Bat.Dead() {
			s.settleBattery(now)
		}
		s.Bat.NoteLedgerReset()
	}
	s.Ledger.Reset(now)
	s.MCU.ResetAccounting()
	s.Radio.ResetAccounting()
	s.Mac.ResetAccounting()
	if r, ok := s.App.(interface{ ResetCounters() }); ok {
		r.ResetCounters()
	}
}

// FinalizeEnergy flushes the meters at instant now, attributes the
// residual idle-listening energy (receiver-on time outside control
// windows and frames) and snapshots the report.
func (s *Sensor) FinalizeEnergy(now sim.Time) energy.Report {
	s.Ledger.Flush(now)
	rxTotal := s.Ledger.Meter(platform.ComponentRadio).TimeIn(platform.StateRadioRX)
	residual := rxTotal - s.Mac.ControlRxTime() - s.Mac.JoinIdleTime()
	if residual > 0 {
		s.Ledger.AttributeLoss(energy.LossIdleListening,
			s.Radio.RxPowerW()*residual.Seconds())
	}
	return s.Ledger.Report()
}

// Base is the base station node (radio + MCU only; it feeds a PC).
type Base struct {
	Name    string
	Profile platform.Profile

	Ledger *energy.Ledger
	MCU    *mcu.MCU
	Sched  *tinyos.Sched
	Radio  *radio.Radio
	BS     mac.BSMAC
}

// NewBase builds the base-station stack under the medium name name
// ("bs" for a single BAN). It runs platform.BaseStation(), which
// replaces cfg.Profile.
func NewBase(k *sim.Kernel, ch *channel.Channel, tracer *metrics.Recorder,
	name string, cfg mac.BSConfig) *Base {
	cfg.Profile = platform.BaseStation()
	ledger := energy.NewLedger()
	m := mcu.New(k, cfg.Profile.MCU, ledger)
	sched := tinyos.NewSched(k, m, 0)
	r := radio.New(k, name, cfg.Profile.Radio, ch, sched, ledger, tracer)
	bs := mac.NewBaseMAC(k, cfg, sched, r, ledger, tracer)
	return &Base{
		Name:    name,
		Profile: cfg.Profile,
		Ledger:  ledger,
		MCU:     m,
		Sched:   sched,
		Radio:   r,
		BS:      bs,
	}
}

// Start begins the beacon cycle.
func (b *Base) Start() { b.BS.Start() }

// ResetAccounting zeroes the base station's accumulators.
func (b *Base) ResetAccounting(now sim.Time) {
	b.Ledger.Flush(now)
	b.Ledger.Reset(now)
	b.MCU.ResetAccounting()
	b.Radio.ResetAccounting()
	b.BS.ResetAccounting()
}

// FinalizeEnergy flushes and snapshots the base station's ledger.
func (b *Base) FinalizeEnergy(now sim.Time) energy.Report {
	b.Ledger.Flush(now)
	return b.Ledger.Report()
}
