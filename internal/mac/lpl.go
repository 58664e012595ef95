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

// Preamble-sampling low-power listening (X-MAC style): there are no
// beacons and no shared timebase. The base station sleeps its receiver
// and wakes every check interval for a short channel probe; a node with
// a frame pending transmits a train of short strobe packets, listening
// briefly after each one, until the base station's probe catches a
// strobe and answers with an early ack that truncates the train. The
// node then delivers its payload (and up to a small burst of further
// queued frames) into the open receive window. Association is the same
// SSR/ack handshake, carried over a strobe train; membership is kept by
// the base station exactly like a slot table, minus the slots.
const (
	// DefaultLPLCheckInterval is the sampling period when the
	// configuration does not name one.
	DefaultLPLCheckInterval = 100 * sim.Millisecond
	// lplWakeBurst caps how many data frames one receiver wake may carry
	// (first frame plus continuation frames sent ack-to-ack).
	lplWakeBurst = 4
	// lplPayloadWait is how long the woken receiver holds its window open
	// for the payload after an early ack (the sender's FIFO load at the
	// energy-relaxed clock-in rate dominates it).
	lplPayloadWait = 8 * sim.Millisecond
	// lplMaxStrobeSpacing bounds the gap between consecutive strobe air
	// starts; the probe window is sized to span one full spacing so a
	// probe that opens mid-strobe still catches the next one whole. Node
	// construction checks its actual spacing against this bound.
	lplMaxStrobeSpacing = 2200 * sim.Microsecond
	// lplStrobeGapMargin pads the node's post-strobe listen gap beyond
	// the base station's turnaround time.
	lplStrobeGapMargin = 200 * sim.Microsecond
	// lplDeferFloor/lplDeferSpan bound the random pause a strober takes
	// when its listen gap senses a foreign transaction on the medium
	// (X-MAC's neighbour deference): long enough to clear a payload
	// exchange, short enough not to miss the next probe.
	lplDeferFloor = 2 * sim.Millisecond
	lplDeferSpan  = 8 * sim.Millisecond
)

// LPLNode is the sensor-node side of the preamble-sampling MAC: the
// lifecycle core plus strobe trains, the association handshake over a
// woken receiver, and burst continuation.
type LPLNode struct {
	nodeCore

	checkInterval sim.Time
	strobeGap     sim.Time // post-strobe early-ack listen window
	maxStrobes    int      // train budget: one check interval plus margin

	op       txOp
	opActive bool
	dataBuf  []byte

	strobeCount int
	gap         rxWindow // post-strobe early-ack listen gap
	ssrWait     rxWindow // association ack wait
	burstLeft   int

	// Steady-state steps bound once at construction.
	resumeStep    sim.ArgHandler
	strobeStepEv  sim.ArgHandler
	gapTimeout    sim.ArgHandler
	strobeLoaded  func()
	strobeFlown   func()
	payloadLoaded func()
	payloadFlown  func()
}

// NewLPLNode wires an LPL node MAC over its radio and OS. A zero
// CheckInterval selects DefaultLPLCheckInterval; it must match the base
// station's sampling period (core wires both from one config).
func NewLPLNode(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *LPLNode {
	if err := validateLPLParams(cfg.Params); err != nil {
		panic(err)
	}
	p := &cfg.Profile
	m := &LPLNode{checkInterval: cfg.Params.CheckInterval}
	m.nodeCore = newNodeCore(k, cfg, sched, r, ledger, tracer, m)
	m.bind()
	m.resumeStep = m.resume
	m.strobeStepEv = m.strobeDeferred
	m.gapTimeout = m.strobeGapTimedOut
	m.strobeLoaded = m.onStrobeLoaded
	m.strobeFlown = m.onStrobeFlown
	m.payloadLoaded = m.onPayloadLoaded
	m.payloadFlown = m.onPayloadFlown
	m.dataHeader = packet.DataHeaderBytes
	if m.checkInterval <= 0 {
		m.checkInterval = DefaultLPLCheckInterval
	}
	// Post-strobe listen gap: early ack settle-to-drain plus the base
	// station's turnaround margin.
	m.strobeGap = p.Radio.RxSettle + p.Radio.Airtime(packet.StrobeAckBytes) +
		p.Radio.RxClockOut(packet.StrobeAckBytes) + lplStrobeGapMargin
	spacing := m.strobeSpacing()
	if spacing+p.Radio.Airtime(packet.StrobeBytes)+100*sim.Microsecond > lplMaxStrobeSpacing {
		panic(fmt.Sprintf("mac %s: strobe spacing %v exceeds the %v probe-window bound",
			m.name, spacing, lplMaxStrobeSpacing))
	}
	m.maxStrobes = int(m.checkInterval/spacing) + 3
	r.SetReceiveHandler(m.onFrame)
	return m
}

// strobeSpacing reports the cadence of the strobe train: FIFO reload,
// settle, strobe burst, listen gap.
func (m *LPLNode) strobeSpacing() sim.Time {
	p := &m.cfg.Profile
	return p.Radio.TxClockIn(p.Radio.AddressBytes+packet.StrobeBytes) +
		p.Radio.TxSettle + p.Radio.Airtime(packet.StrobeBytes) + m.strobeGap
}

// Start implements Mac: there is no beacon to find, so the node goes
// straight to the association handshake at a random desynchronising
// offset inside one check interval.
func (m *LPLNode) Start() {
	if m.beaconOnly {
		// Battery-parked across a reboot: with no beacons to track, a
		// parked LPL node is simply silent.
		m.state = stateParked
		m.tracer.Record(m.k.Now(), m.name, metrics.KindParked, "")
		return
	}
	m.state = stateRequesting
	if m.joinedEver {
		m.armRejoinClock()
	}
	m.resumeAfter(sim.Time(m.k.Rand().Int63n(int64(m.checkInterval))), opSSR)
}

// Slot implements Mac: LPL has no slots or member indices to report.
func (m *LPLNode) Slot() int { return -1 }

// CycleLength implements Mac: the regulation period is the receiver's
// sampling interval.
func (m *LPLNode) CycleLength() sim.Time { return m.checkInterval }

// EnterBeaconOnly implements NodeMAC: with no beacons to keep, the final
// degradation rung of an LPL node is radio silence — the base station's
// silence reclaim retires the membership.
func (m *LPLNode) EnterBeaconOnly() {
	if m.beaconOnly {
		return
	}
	m.beaconOnly = true
	if m.state == stateCrashed {
		return // parks on reboot
	}
	m.park()
}

// park settles into radio silence. Unlike the beaconed MACs the parked
// node keeps no windows at all.
func (m *LPLNode) park() {
	m.nodeCore.park()
	if m.radio.Mode() == radio.ModeRx {
		m.radio.PowerDown()
	}
}

// resetAccess implements accessPolicy: close the strobe and handshake
// windows and end any train.
func (m *LPLNode) resetAccess() {
	m.drop(&m.gap)
	m.drop(&m.ssrWait)
	m.endOp()
}

// queued implements accessPolicy: a queued frame launches a strobe train
// if none is running.
func (m *LPLNode) queued() { m.startOp(opData) }

// ackLost implements accessPolicy: the payload is lost (the wake window
// closed, or the frame collided) and retries through a fresh strobe
// train after a randomised pause that decorrelates it from whatever
// transaction collided with the lost exchange.
func (m *LPLNode) ackLost() {
	m.endOp()
	if len(m.queue) > 0 {
		m.resumeAfter(m.checkInterval/8+sim.Time(m.k.Rand().Int63n(int64(m.checkInterval/2))), opData)
	}
}

// resumeAfter relaunches op's strobe train after delay, unless a crash
// intervenes.
func (m *LPLNode) resumeAfter(delay sim.Time, op txOp) {
	m.k.ScheduleArg(m.k.Now()+delay, m.resumeStep, stepArg(m.gen, int(op)))
}

// resume is the step resumeAfter armed; the arg carries the op.
func (m *LPLNode) resume(_ *sim.Kernel, arg uint64) {
	if op, live := m.stepLive(arg); live {
		m.startOp(txOp(op))
	}
}

func (m *LPLNode) onFrame(f packet.Frame) {
	if f.Dest != m.cfg.Plan.NodeAddr(m.cfg.NodeID) {
		return
	}
	switch {
	case packet.IsStrobeAck(f.Payload):
		m.handleStrobeAck()
	case packet.IsAck(f.Payload):
		m.handleAck()
	}
}

// startOp launches op's strobe train: the association handshake while
// requesting, a data delivery once joined with frames queued.
func (m *LPLNode) startOp(op txOp) {
	if m.opActive {
		return
	}
	if op == opSSR && m.state != stateRequesting {
		return
	}
	if op == opData {
		if m.state != stateJoined || len(m.queue) == 0 {
			return
		}
		if m.stretchSkip("op=%d") {
			// Duty-cycle stretch: sleep through this opportunity and
			// check back one sampling period later.
			m.resumeAfter(m.checkInterval, opData)
			return
		}
	}
	m.opActive = true
	m.op = op
	m.strobeCount = 0
	m.strobeStep()
}

// strobeStep sends the next strobe of the train, or gives up when the
// budget (one full check interval) is exhausted.
func (m *LPLNode) strobeStep() {
	if !m.opActive || m.state == stateParked || m.state == stateCrashed {
		return
	}
	if m.strobeCount >= m.maxStrobes {
		// A whole sampling period went unanswered: the receiver is deaf
		// (jammed, crashed, out of range). Back off a randomised interval
		// and retry.
		m.stats.StrobeFails++
		op := m.op
		m.endOp()
		m.resumeAfter(m.checkInterval+sim.Time(m.k.Rand().Int63n(int64(m.checkInterval))), op)
		return
	}
	m.strobeCount++
	strobe := packet.Strobe{NodeID: m.cfg.NodeID}
	m.ctrlBuf = strobe.AppendMarshal(m.ctrlBuf[:0])
	m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.strobeLoaded)
}

// onStrobeLoaded fires the strobe once it sits in the TX FIFO.
func (m *LPLNode) onStrobeLoaded() {
	if m.state == stateParked || m.state == stateCrashed || !m.opActive {
		m.radio.PowerDown()
		return
	}
	m.radio.Fire(m.strobeFlown)
}

// onStrobeFlown opens the early-ack gap after a strobe.
func (m *LPLNode) onStrobeFlown() {
	if m.state == stateParked || m.state == stateCrashed || !m.opActive {
		m.radio.PowerDown()
		return
	}
	m.stats.StrobesSent++
	m.chargeControlTx(packet.StrobeBytes)
	m.openStrobeGap()
}

// openStrobeGap listens briefly for the early ack that truncates the
// train.
func (m *LPLNode) openStrobeGap() {
	m.listen(&m.gap)
	m.gap.timeout = m.k.ScheduleArg(m.k.Now()+m.strobeGap, m.gapTimeout, stepArg(m.gen, 0))
}

// strobeGapTimedOut is the strobe gap's timeout step.
func (m *LPLNode) strobeGapTimedOut(_ *sim.Kernel, arg uint64) {
	if _, live := m.stepLive(arg); live {
		m.onStrobeGapTimeout()
	}
}

// strobeDeferred resumes a strobe train deferred behind a busy channel.
func (m *LPLNode) strobeDeferred(_ *sim.Kernel, arg uint64) {
	if _, live := m.stepLive(arg); live {
		m.strobeStep()
	}
}

func (m *LPLNode) onStrobeGapTimeout() {
	if !m.shut(&m.gap, false) {
		return
	}
	if m.radio.ChannelBusy() {
		// The gap heard a foreign transaction (another node's train or
		// payload exchange): defer politely instead of strobing over it.
		// The pause does not consume the strobe budget.
		delay := lplDeferFloor + sim.Time(m.k.Rand().Int63n(int64(lplDeferSpan)))
		m.k.ScheduleArg(m.k.Now()+delay, m.strobeStepEv, stepArg(m.gen, 0))
		return
	}
	m.strobeStep()
}

// handleStrobeAck truncates the train: the receiver is awake and
// waiting.
func (m *LPLNode) handleStrobeAck() {
	if !m.shut(&m.gap, true) {
		return
	}
	m.stats.EarlyAcks++
	m.burstLeft = lplWakeBurst - 1
	m.sendPayload()
}

// sendPayload delivers the train's cargo into the receiver's open window.
func (m *LPLNode) sendPayload() {
	p := &m.cfg.Profile
	switch m.op {
	case opSSR:
		m.ssrNonce++
		ssr := packet.SSR{NodeID: m.cfg.NodeID, Nonce: m.ssrNonce}
		gen := m.gen
		m.sched.Interrupt("ssr-prep", p.Cost.SSRPrep, func() {
			if m.gen != gen || !m.opActive {
				return
			}
			m.ctrlBuf = ssr.AppendMarshal(m.ctrlBuf[:0])
			m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, func() {
				if m.state == stateParked || m.state == stateCrashed {
					m.radio.PowerDown()
					return
				}
				m.radio.Fire(func() {
					if m.state == stateParked || m.state == stateCrashed {
						m.radio.PowerDown()
						return
					}
					m.stats.SSRSent++
					m.chargeControlTx(packet.SSRBytes)
					m.tracer.Recordf(m.k.Now(), m.name, metrics.KindSSRTx, "nonce=%d", m.ssrNonce)
					m.openSSRWait()
				})
			})
		})
	case opData:
		if m.inFlight == nil {
			if len(m.queue) == 0 {
				m.endOp()
				return
			}
			m.popQueue()
		}
		m.dataBuf = append(append(m.dataBuf[:0], m.cfg.NodeID), m.inFlight.payload...)
		m.radio.Load(m.cfg.Plan.BSData, m.dataBuf, m.payloadLoaded)
	}
}

// onPayloadLoaded fires the data frame once it sits in the TX FIFO.
func (m *LPLNode) onPayloadLoaded() {
	if m.state == stateParked || m.state == stateCrashed {
		m.radio.PowerDown()
		return
	}
	m.noteLatency()
	m.radio.Fire(m.payloadFlown)
}

// onPayloadFlown opens the acknowledgement window after the data burst.
func (m *LPLNode) onPayloadFlown() {
	if m.state == stateCrashed {
		return
	}
	m.stats.DataSent++
	m.tracer.Recordf(m.k.Now(), m.name, metrics.KindDataTx, "len=%d", len(m.dataBuf))
	m.openAckWindow()
}

// openSSRWait listens for the association ack.
func (m *LPLNode) openSSRWait() {
	m.listen(&m.ssrWait)
	gen := m.gen
	m.ssrWait.timeout = m.k.Schedule(m.cfg.Profile.MAC.AckTimeout, func(*sim.Kernel) {
		if m.gen != gen {
			return
		}
		m.onSSRTimeout()
	})
}

// onSSRTimeout retries the association after a randomised backoff (the
// receiver woke but the handshake broke: collision, or membership full).
func (m *LPLNode) onSSRTimeout() {
	if !m.shut(&m.ssrWait, false) {
		return
	}
	m.endOp()
	m.resumeAfter(m.checkInterval+sim.Time(m.k.Rand().Int63n(int64(m.checkInterval))), opSSR)
}

// handleAck resolves whichever handshake is waiting: the association
// (while requesting) or a data frame.
func (m *LPLNode) handleAck() {
	if m.shut(&m.ssrWait, true) {
		m.endOp()
		m.enterJoined(m.k.Now(), -1)
		if len(m.queue) > 0 {
			m.startOp(opData)
		}
		return
	}
	if !m.ackReceived() {
		return
	}
	if len(m.queue) > 0 && m.burstLeft > 0 {
		// The receiver reopens its window after each ack: continue the
		// burst without a fresh strobe train.
		m.burstLeft--
		m.sendPayload()
		return
	}
	m.endOp()
	if len(m.queue) > 0 {
		m.startOp(opData)
	}
}

func (m *LPLNode) endOp() {
	m.opActive = false
	m.op = opNone
	m.strobeCount = 0
}

// AuditProtocol checks the preamble-sampling consistency laws: every
// early ack truncated a train that strobed at least once, every payload
// burst rode a wake that an early ack opened (bounded by the per-wake
// burst budget), and every exhausted train consumed a full strobe budget
// (all with one epoch-straddle credit).
func (m *LPLNode) AuditProtocol() []string {
	var v []string
	s := m.stats
	if s.EarlyAcks > s.StrobesSent+1 {
		v = append(v, fmt.Sprintf("EarlyAcks %d exceed StrobesSent %d (+1 straddle credit)",
			s.EarlyAcks, s.StrobesSent))
	}
	if payloads := s.DataSent + s.SSRSent; payloads > lplWakeBurst*s.EarlyAcks+1 {
		v = append(v, fmt.Sprintf("%d payloads exceed %d early acks × burst %d (+1 straddle credit)",
			payloads, s.EarlyAcks, lplWakeBurst))
	}
	if s.StrobeFails*uint64(m.maxStrobes) > s.StrobesSent+uint64(m.maxStrobes) {
		v = append(v, fmt.Sprintf("StrobeFails %d imply more than the %d strobes sent (budget %d)",
			s.StrobeFails, s.StrobesSent, m.maxStrobes))
	}
	if m.gap.open && !m.opActive {
		v = append(v, "strobe gap open with no active train")
	}
	return v
}

// --- base station ---------------------------------------------------------

// LPLBS is the duty-cycled receiver: it probes the channel every check
// interval, answers a caught strobe with an early ack, and services the
// opened wake (association or data, with per-ack window reopening for
// bursts).
type LPLBS struct {
	bsCore

	checkInterval sim.Time
	startAt       sim.Time

	waking          bool // a probe/wake owns the radio
	acking          bool // early ack committed: turnaround/transmit in progress
	awaitingPayload bool // receive window open for a payload
	probeOpenAt     sim.Time
	probeTimeout    sim.EventID
	payloadTimeout  sim.EventID

	strobeAckBuf []byte
	// strobes queues the strobing nodes' IDs awaiting the turnaround ISR.
	strobes []uint8

	// Steady-state steps bound once at construction.
	probeStep          sim.ArgHandler
	probeIdleStep      sim.ArgHandler
	payloadTimeoutStep sim.ArgHandler
	strobeTurnaround   func()
	strobeAckLoaded    func()
	strobeAckFlown     func()
}

// NewLPLBS wires an LPL base station. A zero CheckInterval selects
// DefaultLPLCheckInterval; it admits MaxDynamicSlots members.
func NewLPLBS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *LPLBS {
	if err := validateLPLParams(cfg.Params); err != nil {
		panic(err)
	}
	bs := &LPLBS{
		bsCore:        newBSCore(k, cfg, sched, r, ledger, tracer, memberWords, cfg.Profile.MAC.MaxDynamicSlots),
		checkInterval: cfg.Params.CheckInterval,
	}
	if bs.checkInterval <= 0 {
		bs.checkInterval = DefaultLPLCheckInterval
	}
	bs.bind()
	bs.ackFlown = bs.openPayloadWindow
	bs.probeStep = bs.probe
	bs.probeIdleStep = func(*sim.Kernel, uint64) { bs.onProbeIdle() }
	bs.payloadTimeoutStep = func(*sim.Kernel, uint64) { bs.onPayloadTimeout() }
	bs.strobeTurnaround = bs.onStrobeTurnaround
	bs.strobeAckLoaded = func() { bs.radio.Fire(bs.strobeAckFlown) }
	bs.strobeAckFlown = func() {
		bs.stats.EarlyAcksSent++
		bs.openPayloadWindow()
	}
	r.SetReceiveHandler(bs.onFrame)
	return bs
}

// CycleLength implements BSMAC: the regulation period is the sampling
// interval.
func (bs *LPLBS) CycleLength() sim.Time { return bs.checkInterval }

// Start implements BSMAC: the sampling schedule is anchored at the start
// instant, probe n firing at n check intervals, independent of how long
// individual wakes run.
func (bs *LPLBS) Start() {
	bs.markStarted()
	bs.radio.SetRxAddresses(bs.cfg.Plan.BSData, bs.cfg.Plan.BSCtrl)
	bs.startAt = bs.k.Now()
	bs.scheduleProbe(1)
}

func (bs *LPLBS) scheduleProbe(n uint64) {
	bs.k.ScheduleArg(bs.startAt+sim.Time(n)*bs.checkInterval, bs.probeStep, n)
}

// probe opens one sampling window (skipped when a wake is still being
// serviced across the probe instant).
func (bs *LPLBS) probe(_ *sim.Kernel, n uint64) {
	bs.scheduleProbe(n + 1)
	bs.reclaimSilent()
	if bs.waking {
		return
	}
	bs.stats.Probes++
	bs.waking = true
	bs.probeOpenAt = bs.k.Now()
	bs.listen()
	window := bs.cfg.Profile.Radio.RxSettle + lplMaxStrobeSpacing
	bs.probeTimeout = bs.k.ScheduleArg(bs.k.Now()+window, bs.probeIdleStep, 0)
}

// onProbeIdle closes a silent sampling window: its receiver-on time is
// the protocol's idle-listening cost.
func (bs *LPLBS) onProbeIdle() {
	if !bs.waking || bs.awaitingPayload {
		return
	}
	bs.waking = false
	bs.radio.PowerDown()
	idle := bs.k.Now() - bs.probeOpenAt
	bs.ledger.AttributeLoss(energy.LossIdleListening,
		bs.radio.RxPowerW()*idle.Seconds())
}

func (bs *LPLBS) onFrame(f packet.Frame) {
	switch f.Dest {
	case bs.cfg.Plan.BSCtrl:
		if s, err := packet.UnmarshalStrobe(f.Payload); err == nil {
			bs.handleStrobe(s)
		} else if ssr, err := packet.UnmarshalSSR(f.Payload); err == nil {
			bs.handleSSR(ssr)
		}
	case bs.cfg.Plan.BSData:
		bs.handleData(f.Payload)
	}
}

// handleStrobe answers the first strobe a probe window catches with the
// early ack that truncates the sender's train.
func (bs *LPLBS) handleStrobe(s packet.Strobe) {
	bs.stats.StrobesHeard++
	if !bs.waking || bs.acking || bs.awaitingPayload {
		// A second sender's strobe during an already-open wake — or one
		// caught in the ack-turnaround gap, before the radio commits to
		// transmit: ignored; its train retries at the next probe.
		return
	}
	bs.acking = true
	bs.k.Cancel(bs.probeTimeout)
	bs.strobes = append(bs.strobes, s.NodeID)
	bs.sched.Interrupt("bs-strobe-turnaround", bs.cfg.Profile.Cost.BSAckTurnaround, bs.strobeTurnaround)
}

// onStrobeTurnaround loads the early ack for the oldest strobe, unless
// the wake ended or a payload window opened meanwhile.
func (bs *LPLBS) onStrobeTurnaround() {
	id := popFront(&bs.strobes)
	if !bs.waking || bs.awaitingPayload {
		return
	}
	bs.radio.Standby()
	bs.strobeAckBuf = packet.StrobeAck{}.AppendMarshal(bs.strobeAckBuf[:0])
	bs.radio.Load(bs.cfg.Plan.NodeAddr(id), bs.strobeAckBuf, bs.strobeAckLoaded)
}

// openPayloadWindow holds the receiver on for the sender's cargo.
func (bs *LPLBS) openPayloadWindow() {
	bs.acking = false
	bs.awaitingPayload = true
	bs.listen()
	bs.payloadTimeout = bs.k.ScheduleArg(bs.k.Now()+lplPayloadWait, bs.payloadTimeoutStep, 0)
}

func (bs *LPLBS) onPayloadTimeout() {
	if !bs.awaitingPayload {
		return
	}
	bs.endWake()
}

func (bs *LPLBS) endWake() {
	bs.acking = false
	bs.awaitingPayload = false
	bs.waking = false
	if bs.radio.Mode() == radio.ModeRx {
		bs.radio.PowerDown()
	}
}

// handleSSR services an association handshake inside the wake: admit (or
// re-admit) the node and ack, or silently reject at the membership cap.
func (bs *LPLBS) handleSSR(ssr packet.SSR) {
	if !bs.awaitingPayload {
		return
	}
	bs.stats.SSRReceived++
	bs.k.Cancel(bs.payloadTimeout)
	bs.sched.PostFn("bs-slot-assign", bs.cfg.Profile.Cost.BSSlotAssign, func() {
		idx, _, ok := bs.admit(ssr.NodeID)
		if !ok {
			bs.endWake()
			return
		}
		bs.tracer.Recordf(bs.k.Now(), "bs", metrics.KindSlotGrant,
			"node=%d member=%d", ssr.NodeID, idx)
		bs.radio.Standby()
		bs.ackBuf = packet.Ack{}.AppendMarshal(bs.ackBuf[:0])
		bs.radio.Load(bs.cfg.Plan.NodeAddr(ssr.NodeID), bs.ackBuf, func() {
			bs.radio.Fire(func() {
				bs.stats.AcksSent++
				bs.awaitingPayload = false
				bs.endWake()
			})
		})
	})
}

// handleData accepts a member's payload (sender-ID header attribution),
// acks it, and reopens the window for a burst continuation.
func (bs *LPLBS) handleData(payload []byte) {
	if !bs.awaitingPayload {
		return
	}
	id, ok := bs.headerSender(payload)
	if !ok {
		return
	}
	bs.k.Cancel(bs.payloadTimeout)
	bs.awaitingPayload = false
	// The radio is committed to the data ack from here until the window
	// reopens: a strobe caught in the gap must not start a second
	// transmit (see handleStrobe's guard).
	bs.acking = true
	bs.ackData(id, bs.accept(id, payload[packet.DataHeaderBytes:]))
}
