package mac

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// NodeMac is the sensor-node side of the TDMA protocol: the beaconed
// lifecycle core plus the slot schedule — SSRs in the request region,
// data (and the voluntary release) in the node's own slot.
type NodeMac struct {
	beaconCore
	// dynamic selects the Figure 3 run-time-growing cycle over the
	// Figure 2 fixed slot count (Protocol ProtoDynamic vs ProtoStatic).
	dynamic      bool
	ssrScheduled bool

	// Steady-state steps bound once at construction.
	slotStep   sim.ArgHandler
	dataLoaded func()
	dataFlown  func()
}

// NewNodeMac wires a node MAC over its radio and OS.
func NewNodeMac(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *NodeMac {
	m := &NodeMac{dynamic: cfg.Protocol == ProtoDynamic}
	m.beaconCore = beaconCore{nodeCore: newNodeCore(k, cfg, sched, r, ledger, tracer, m), access: m, slot: -1}
	m.bind()
	m.slotStep = m.slotBoundary
	m.dataLoaded = m.onDataLoaded
	m.dataFlown = m.onDataFlown
	p := &cfg.Profile
	if m.dynamic {
		m.guard = p.MAC.DynamicGuard
		m.parseCycles = p.Cost.BeaconParseDynamic
		m.beaconMax = p.MAC.BeaconBasePayloadBytes + p.MAC.SlotEntryBytes*p.MAC.MaxDynamicSlots
		m.rejoinUnlisted = true
	} else {
		m.guard = p.MAC.StaticGuard
		m.parseCycles = p.Cost.BeaconParseStatic
		m.beaconMax = p.MAC.BeaconBasePayloadBytes + p.MAC.GrantEntryBytes*2
	}
	m.ackProcess = true
	r.SetReceiveHandler(m.onFrame)
	return m
}

// resetAccess implements accessPolicy.
func (m *NodeMac) resetAccess() { m.ssrScheduled = false }

// queued implements accessPolicy: load the new frame if the radio is free.
func (m *NodeMac) queued() { m.tryLoad() }

// ackLost implements accessPolicy: reload the requeued frame.
func (m *NodeMac) ackLost() { m.tryLoad() }

// transmit implements beaconAccess: load the head of the queue and arm
// this cycle's transmission at the slot boundary.
func (m *NodeMac) transmit() {
	m.tryLoad()
	fireAt := m.t0 + m.local(m.slotStart(m.slot))
	if fireAt <= m.k.Now() {
		return // our slot already passed this cycle
	}
	m.k.ScheduleArg(fireAt, m.slotStep, stepArg(m.gen, 0))
}

// slotBoundary is the data-slot step transmit armed.
func (m *NodeMac) slotBoundary(_ *sim.Kernel, arg uint64) {
	if _, live := m.stepLive(arg); live {
		m.fireSlot()
	}
}

// slotDuration reports the data-slot length under the current cycle.
func (m *NodeMac) slotDuration() sim.Time {
	if m.dynamic {
		return m.cfg.Profile.MAC.DynamicSlotDuration
	}
	return m.cycle / sim.Time(m.cfg.Profile.MAC.MaxStaticSlots+1)
}

// slotStart reports the offset of slot i from the beacon air start. Slot
// 0 begins after the SB (static) / SB+ES (dynamic) control region, which
// both variants size as one slot.
func (m *NodeMac) slotStart(i int) sim.Time {
	return m.slotDuration() * sim.Time(i+1)
}

// request implements beaconAccess: transmit a slot request at a random
// offset inside the variant's request region of the current cycle.
func (m *NodeMac) request() {
	if m.ssrScheduled {
		return
	}
	p := &m.cfg.Profile
	ssrAir := p.Radio.Airtime(packet.SSRBytes)
	loadLead := p.Radio.TxClockIn(p.Radio.AddressBytes+packet.SSRBytes) +
		p.MCU.CyclesToTime(p.Cost.SSRPrep) + 100*sim.Microsecond

	// The whole SSR operation (prep, load, settle, burst) must finish
	// before the next beacon listen window opens.
	windowOpen := m.cycle - m.guard - p.Radio.RxSettle
	hi := windowOpen - ssrAir - p.Radio.TxSettle - 300*sim.Microsecond
	// Static: anywhere in the receive region after the SB slot.
	lo := m.slotDuration()
	if m.dynamic {
		// Random offset within the empty slot (ES), after the beacon.
		lo = 2 * sim.Millisecond
		if es := p.MAC.DynamicSlotDuration - ssrAir - p.Radio.TxSettle - 500*sim.Microsecond; es < hi {
			hi = es
		}
	}
	if hi <= lo {
		return // degenerate geometry; try next cycle
	}
	// The transmit must start after preparation completes.
	earliest := m.k.Now() - m.t0 + loadLead
	if earliest > lo {
		lo = earliest
	}
	if hi <= lo {
		return
	}
	off := lo + sim.Time(m.k.Rand().Int63n(int64(hi-lo)))
	fireAt := m.t0 + m.local(off)
	prepAt := fireAt - loadLead
	if prepAt <= m.k.Now() {
		// A fast local clock compresses the offset below the preparation
		// lead; skip this cycle and request on the next beacon.
		return
	}
	m.ssrScheduled = true
	loadedSSR := false
	gen := m.gen
	m.k.ScheduleAt(prepAt, func(*sim.Kernel) {
		if m.gen != gen {
			return // armed before a crash
		}
		if m.state != stateRequesting || m.radio.Mode() == radio.ModeRx {
			m.ssrScheduled = false
			return
		}
		m.ssrNonce++
		ssr := packet.SSR{NodeID: m.cfg.NodeID, Nonce: m.ssrNonce}
		m.sched.Interrupt("ssr-prep", p.Cost.SSRPrep, func() {
			if m.radio.Mode() == radio.ModeRx {
				m.ssrScheduled = false
				return
			}
			m.ctrlBuf = ssr.AppendMarshal(m.ctrlBuf[:0])
			m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, func() { loadedSSR = true })
		})
	})
	m.k.ScheduleAt(fireAt, func(*sim.Kernel) {
		if m.gen != gen {
			return // armed before a crash
		}
		if m.state != stateRequesting || !loadedSSR || m.radio.Mode() == radio.ModeRx {
			m.ssrScheduled = false
			return
		}
		m.radio.Fire(func() {
			m.stats.SSRSent++
			m.ssrScheduled = false
			m.chargeControlTx(packet.SSRBytes)
			m.tracer.Recordf(m.k.Now(), m.name, metrics.KindSSRTx, "nonce=%d", m.ssrNonce)
			m.radio.PowerDown()
		})
	})
}

// release implements beaconAccess: transmit the voluntary slot release
// in the node's own data slot (collision-free by construction, like a
// data frame), then park in beacon-only mode. A lost release is
// tolerated: the base station's silence reclaim frees the slot a few
// cycles later, and the parked node ignores its stale table row until
// then.
func (m *NodeMac) release() {
	p := &m.cfg.Profile
	rel := packet.Release{NodeID: m.cfg.NodeID}
	loadLead := p.Radio.TxClockIn(p.Radio.AddressBytes+packet.ReleaseBytes) +
		p.MCU.CyclesToTime(p.Cost.SSRPrep) + 100*sim.Microsecond
	fireAt := m.t0 + m.local(m.slotStart(m.slot))
	prepAt := fireAt - loadLead
	if prepAt <= m.k.Now() {
		return // our slot already passed this cycle; announce on the next
	}
	loadedRel := false
	gen := m.gen
	m.k.ScheduleAt(prepAt, func(*sim.Kernel) {
		if m.gen != gen {
			return // armed before a crash
		}
		if m.state != stateJoined || !m.releasePending || m.ack.open ||
			m.loading || m.radio.Mode() == radio.ModeRx {
			return // busy radio or pipeline; retry on the next beacon
		}
		// Any stale data frame in the FIFO is abandoned: the application
		// is already stopped, and the release overwrites the FIFO.
		m.loaded = false
		m.inFlight = nil
		m.sched.Interrupt("release-prep", p.Cost.SSRPrep, func() {
			if m.radio.Mode() == radio.ModeRx {
				return
			}
			m.ctrlBuf = rel.AppendMarshal(m.ctrlBuf[:0])
			m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, func() { loadedRel = true })
		})
	})
	m.k.ScheduleAt(fireAt, func(*sim.Kernel) {
		if m.gen != gen {
			return // armed before a crash
		}
		if m.state != stateJoined || !m.releasePending || !loadedRel ||
			m.radio.Mode() == radio.ModeRx {
			return
		}
		m.radio.Fire(func() {
			m.stats.ReleasesSent++
			m.chargeControlTx(packet.ReleaseBytes)
			m.tracer.Recordf(m.k.Now(), m.name, metrics.KindSlotRelease, "slot=%d", m.slot)
			m.radio.PowerDown()
			m.park()
		})
	})
}

// tryLoad moves the head-of-queue payload into the TX FIFO when the radio
// is free and the next beacon window is far enough away.
func (m *NodeMac) tryLoad() {
	if m.state != stateJoined || m.releasePending || m.loading || m.loaded || m.ack.open || len(m.queue) == 0 {
		return
	}
	if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
		return
	}
	p := &m.cfg.Profile
	loadDur := p.Radio.TxClockIn(p.Radio.AddressBytes + len(m.queue[0].payload))
	if m.k.Now()+loadDur+500*sim.Microsecond >= m.nextWindowOpen() && m.cycle > 0 {
		return // too close to the beacon window; retry after the beacon
	}
	item := m.popQueue()
	m.loading = true
	m.radio.Load(m.cfg.Plan.BSData, item.payload, m.dataLoaded)
}

// onDataLoaded runs when the data frame sits in the TX FIFO.
func (m *NodeMac) onDataLoaded() {
	m.loading = false
	m.loaded = true
	m.radio.PowerDown() // FIFO retains the frame; sleep until the slot
}

// fireSlot transmits the loaded frame at the slot boundary and opens the
// acknowledgement window.
func (m *NodeMac) fireSlot() {
	if m.state != stateJoined || !m.loaded {
		return
	}
	if m.radio.Mode() == radio.ModeRx {
		return // window overlap guard; skip this cycle
	}
	m.loaded = false
	m.tracer.Recordf(m.k.Now(), m.name, metrics.KindSlotStart, "slot=%d", m.slot)
	m.noteLatency()
	m.radio.Fire(m.dataFlown)
}

// onDataFlown opens the acknowledgement window once the data burst ends.
func (m *NodeMac) onDataFlown() {
	if m.inFlight == nil {
		panic(fmt.Sprintf("mac %s: fire done with nil inFlight: state=%v stats=%+v", m.name, m.state, m.stats))
	}
	m.stats.DataSent++
	m.tracer.Recordf(m.k.Now(), m.name, metrics.KindDataTx, "len=%d", len(m.inFlight.payload))
	m.openAckWindow()
}

// AuditProtocol implements NodeMAC: the TDMA node's protocol-specific
// laws check grant-window containment from the node's own view: a
// joined node's data slot, as timed against the cycle length it learned
// from its reference beacon, must end inside that cycle. Slot index and
// cycle always come from the same beacon (dead reckoning keeps both),
// so the law holds through compactions the node has not yet heard; a
// violation means the base station granted a slot outside the frame it
// advertised.
func (m *NodeMac) AuditProtocol() []string {
	if m.state != stateJoined || m.cycle <= 0 {
		return nil
	}
	if m.slot < 0 {
		return []string{fmt.Sprintf("joined with invalid slot %d", m.slot)}
	}
	if end := m.slotStart(m.slot) + m.slotDuration(); end > m.cycle {
		return []string{fmt.Sprintf("slot %d window ends at %v, past the %v cycle",
			m.slot, end, m.cycle)}
	}
	return nil
}
