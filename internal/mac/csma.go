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

// Slotted CSMA/CA: the base station keeps the beacon cadence of the
// static TDMA (fixed cycle, join grants advertised in beacons), but the
// region between beacons is a contention-access period instead of a slot
// schedule. A node with a frame pending draws a random backoff in unit
// periods, assesses the channel (receiver on for a short energy-detect
// window), and transmits when it is clear; a busy verdict doubles the
// backoff range (binary exponential backoff) until the attempt gives up
// for the cycle. Because any member may transmit at any offset, data
// frames carry a one-byte sender-ID header in place of the TDMA's
// slot-timing attribution.
const (
	// defaultMinBE/defaultMaxBE/defaultMaxBackoffs are the backoff
	// defaults (802.15.4's macMinBE/macMaxBE/macMaxCSMABackoffs shape).
	defaultMinBE       = 3
	defaultMaxBE       = 5
	defaultMaxBackoffs = 4
	// csmaUnitBackoff is one backoff period: a draw of n waits n of
	// these before the channel assessment.
	csmaUnitBackoff = 320 * sim.Microsecond
	// csmaCCADuration is the energy-detect window the receiver stays on
	// after settling to judge the channel.
	csmaCCADuration = 128 * sim.Microsecond
	// DefaultCSMACycle is the beacon period when the configuration does
	// not name one (the same ballpark as the paper's TDMA cycles).
	DefaultCSMACycle = 30 * sim.Millisecond
)

// CSMANode is the sensor-node side of the slotted CSMA/CA protocol: the
// beaconed lifecycle core plus one backoff/CCA attempt per beacon cycle.
type CSMANode struct {
	beaconCore

	minBE       int
	maxBE       int
	maxBackoffs int

	op txOp
	// dataBuf is marshal scratch for the sender-ID header plus payload.
	dataBuf []byte

	// Contention attempt state (one attempt machine per node).
	attemptActive bool
	nb            int  // busy verdicts consumed by this attempt
	be            int  // current backoff exponent
	firing        txOp // the op whose burst is on the air

	// Steady-state steps bound once at construction.
	backoffStep   sim.ArgHandler
	ccaStep       sim.ArgHandler
	onFrameLoaded func()
	onFlown       func()
}

// NewCSMANode wires a CSMA/CA node MAC over its radio and OS. Zero
// Params fields select the documented defaults.
func NewCSMANode(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *CSMANode {
	if err := validateCSMAParams(cfg.Params); err != nil {
		panic(err)
	}
	m := &CSMANode{
		minBE:       cfg.Params.MinBE,
		maxBE:       cfg.Params.MaxBE,
		maxBackoffs: cfg.Params.MaxBackoffs,
	}
	if m.minBE == 0 {
		m.minBE = defaultMinBE
	}
	if m.maxBE == 0 {
		m.maxBE = defaultMaxBE
	}
	if m.maxBackoffs == 0 {
		m.maxBackoffs = defaultMaxBackoffs
	}
	m.beaconCore = beaconCore{nodeCore: newNodeCore(k, cfg, sched, r, ledger, tracer, m), access: m, slot: -1}
	m.bind()
	m.backoffStep = m.backoffDone
	m.ccaStep = m.ccaDone
	m.onFrameLoaded = m.frameLoaded
	m.onFlown = m.flown
	// Static-TDMA beacon timing: the same guard, parse cost and beacon
	// sizing (base payload plus a bounded number of join grants).
	p := &cfg.Profile
	m.guard = p.MAC.StaticGuard
	m.parseCycles = p.Cost.BeaconParseStatic
	m.beaconMax = p.MAC.BeaconBasePayloadBytes + p.MAC.GrantEntryBytes*2
	m.yieldToTx = true
	m.dataHeader = packet.DataHeaderBytes
	r.SetReceiveHandler(m.onFrame)
	return m
}

// resetAccess implements accessPolicy: abandon the attempt machine.
func (m *CSMANode) resetAccess() {
	m.op = opNone
	m.attemptActive = false
}

// queued implements accessPolicy: a frame waits for the next beacon's
// contention attempt.
func (m *CSMANode) queued() {}

// ackLost implements accessPolicy: the requeued frame recontends after
// the next beacon.
func (m *CSMANode) ackLost() {}

// request implements beaconAccess: contend to send the slot request.
func (m *CSMANode) request() { m.beginAttempt(opSSR) }

// release implements beaconAccess: contend to send the Release.
func (m *CSMANode) release() { m.beginAttempt(opRelease) }

// transmit implements beaconAccess: contend to send the queue head.
func (m *CSMANode) transmit() { m.beginAttempt(opData) }

// beginAttempt loads op's frame into the FIFO (if not already resident
// from a deferred attempt) and starts the backoff/CCA loop. One attempt
// runs per beacon cycle; an attempt that runs out of time or backoffs
// leaves the frame loaded for the next cycle.
func (m *CSMANode) beginAttempt(op txOp) {
	if m.attemptActive || m.loading || m.ack.open {
		return
	}
	if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
		return
	}
	if m.op != opNone && m.op != op {
		// The FIFO holds a stale frame of another kind (a data frame
		// loaded before EnterBeaconOnly, say): the release path owns the
		// radio now and the unsent frame is discarded.
		m.loaded = false
		m.inFlight = nil
		m.op = opNone
	}
	p := &m.cfg.Profile
	if !m.loaded {
		switch op {
		case opData:
			if len(m.queue) == 0 {
				return
			}
			n := len(m.queue[0].payload)
			loadDur := p.Radio.TxClockIn(p.Radio.AddressBytes + packet.DataHeaderBytes + n)
			if !m.attemptFits(m.k.Now()+loadDur, m.opTailNeed(op, n)) {
				return // no room left this cycle; the frame stays queued
			}
			item := m.popQueue()
			m.op = opData
			m.loading = true
			m.dataBuf = append(append(m.dataBuf[:0], m.cfg.NodeID), item.payload...)
			m.radio.Load(m.cfg.Plan.BSData, m.dataBuf, m.onFrameLoaded)
		case opSSR:
			m.ssrNonce++
			ssr := packet.SSR{NodeID: m.cfg.NodeID, Nonce: m.ssrNonce}
			m.op = opSSR
			m.loading = true
			m.sched.Interrupt("ssr-prep", p.Cost.SSRPrep, func() {
				if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
					m.loading = false
					m.op = opNone
					return
				}
				m.ctrlBuf = ssr.AppendMarshal(m.ctrlBuf[:0])
				m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.onFrameLoaded)
			})
		case opRelease:
			rel := packet.Release{NodeID: m.cfg.NodeID}
			m.op = opRelease
			m.loading = true
			m.ctrlBuf = rel.AppendMarshal(m.ctrlBuf[:0])
			m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.onFrameLoaded)
		}
		return
	}
	m.startBackoff()
}

// frameLoaded sleeps the radio once the FIFO holds the attempt's frame
// and starts contending.
func (m *CSMANode) frameLoaded() {
	m.loading = false
	m.loaded = true
	m.radio.PowerDown()
	m.startBackoff()
}

// opTailNeed reports how long an attempt needs after its CCA clears:
// settle, burst, and (for data) the acknowledgement window.
func (m *CSMANode) opTailNeed(op txOp, payloadLen int) sim.Time {
	p := &m.cfg.Profile
	switch op {
	case opData:
		return p.Radio.TxSettle + p.Radio.Airtime(packet.DataHeaderBytes+payloadLen) +
			p.MAC.AckTimeout + 300*sim.Microsecond
	case opSSR:
		return p.Radio.TxSettle + p.Radio.Airtime(packet.SSRBytes) + 300*sim.Microsecond
	default:
		return p.Radio.TxSettle + p.Radio.Airtime(packet.ReleaseBytes) + 300*sim.Microsecond
	}
}

// attemptFits reports whether an attempt whose CCA could start at
// earliest can still finish tail before the next beacon window opens.
func (m *CSMANode) attemptFits(earliest sim.Time, tail sim.Time) bool {
	ccaNeed := m.cfg.Profile.Radio.RxSettle + csmaCCADuration
	return earliest+ccaNeed+tail < m.nextWindowOpen()
}

// startBackoff opens a fresh BEB sequence for the loaded frame.
func (m *CSMANode) startBackoff() {
	if m.attemptActive || !m.loaded || m.state == stateCrashed || m.state == stateParked {
		return
	}
	m.attemptActive = true
	m.nb = 0
	m.be = m.minBE
	m.scheduleBackoffStep()
}

// scheduleBackoffStep draws the random wait and arms the CCA.
func (m *CSMANode) scheduleBackoffStep() {
	draw := m.k.Rand().Int63n(int64(1) << uint(m.be))
	at := m.k.Now() + sim.Time(draw)*csmaUnitBackoff
	tail := m.opTailNeed(m.op, m.inFlightLen())
	if !m.attemptFits(at, tail) {
		// Out of contention room this cycle; the loaded frame waits for
		// the next beacon. Not a channel failure, so no counter moves.
		m.attemptActive = false
		return
	}
	m.k.ScheduleArg(at, m.backoffStep, stepArg(m.gen, 0))
}

// backoffDone starts the clear-channel assessment once the backoff
// scheduleBackoffStep armed has elapsed.
func (m *CSMANode) backoffDone(_ *sim.Kernel, arg uint64) {
	if _, live := m.stepLive(arg); live {
		m.ccaStart()
	}
}

// ccaStart turns the receiver on for the clear-channel assessment.
func (m *CSMANode) ccaStart() {
	if !m.attemptActive || m.state == stateCrashed || m.state == stateParked {
		m.attemptActive = false
		return
	}
	if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
		m.attemptActive = false // radio owned by another window; retry next cycle
		return
	}
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	m.k.ScheduleArg(m.k.Now()+m.cfg.Profile.Radio.RxSettle+csmaCCADuration, m.ccaStep, stepArg(m.gen, 0))
}

// ccaDone takes the assessment's verdict at the sample instant.
func (m *CSMANode) ccaDone(_ *sim.Kernel, arg uint64) {
	if _, live := m.stepLive(arg); live {
		m.ccaSample()
	}
}

// ccaSample reads the energy-detect verdict at the end of the window.
func (m *CSMANode) ccaSample() {
	if !m.attemptActive {
		return
	}
	if m.radio.Mode() != radio.ModeRx {
		// A crash/reset path powered the radio down mid-window.
		m.attemptActive = false
		return
	}
	busy := m.radio.ChannelBusy()
	m.radio.PowerDown()
	m.accountControlRx(m.cfg.Profile.Radio.RxSettle + csmaCCADuration)
	m.stats.CCAAttempts++
	if busy {
		m.stats.CCABusy++
		m.nb++
		if m.nb > m.maxBackoffs {
			// Attempt exhausted: the frame stays loaded and recontends
			// after the next beacon.
			m.stats.CCAFails++
			m.attemptActive = false
			return
		}
		if m.be < m.maxBE {
			m.be++
		}
		m.scheduleBackoffStep()
		return
	}
	m.fire()
}

// fire transmits the loaded frame the instant its CCA cleared.
func (m *CSMANode) fire() {
	m.attemptActive = false
	m.loaded = false
	m.firing = m.op
	if m.firing == opData {
		m.noteLatency()
	}
	m.radio.Fire(m.onFlown)
}

// flown completes the burst fire started, by the op it carried.
func (m *CSMANode) flown() {
	if m.state == stateCrashed {
		return
	}
	m.op = opNone
	switch m.firing {
	case opData:
		if m.state == stateParked {
			m.radio.PowerDown()
			return
		}
		m.stats.DataSent++
		m.tracer.Recordf(m.k.Now(), m.name, metrics.KindDataTx, "len=%d",
			packet.DataHeaderBytes+m.inFlightLen())
		m.openAckWindow()
	case opSSR:
		m.stats.SSRSent++
		m.chargeControlTx(packet.SSRBytes)
		m.tracer.Recordf(m.k.Now(), m.name, metrics.KindSSRTx, "nonce=%d", m.ssrNonce)
		m.radio.PowerDown()
	case opRelease:
		m.stats.ReleasesSent++
		m.chargeControlTx(packet.ReleaseBytes)
		m.tracer.Recordf(m.k.Now(), m.name, metrics.KindSlotRelease, "member=%d", m.slot)
		m.radio.PowerDown()
		m.park()
	}
}

// inFlightLen reports the in-flight frame's application payload length
// (0 when none).
func (m *CSMANode) inFlightLen() int {
	if m.inFlight != nil {
		return len(m.inFlight.payload)
	}
	return 0
}

// AuditProtocol checks the channel-access consistency laws: every busy
// verdict and every failure is backed by an assessment, an exhausted
// attempt consumed at least one busy verdict, every burst was preceded by
// a clear assessment (with one epoch-straddle credit), and an active
// attempt's backoff state sits inside its configured bounds.
func (m *CSMANode) AuditProtocol() []string {
	var v []string
	s := m.stats
	if s.CCABusy > s.CCAAttempts {
		v = append(v, fmt.Sprintf("CCABusy %d exceeds CCAAttempts %d", s.CCABusy, s.CCAAttempts))
	}
	if s.CCAFails > s.CCABusy {
		v = append(v, fmt.Sprintf("CCAFails %d exceeds CCABusy %d", s.CCAFails, s.CCABusy))
	}
	bursts := s.DataSent + s.SSRSent + s.ReleasesSent
	clear := s.CCAAttempts - s.CCABusy
	if bursts > clear+1 {
		v = append(v, fmt.Sprintf("%d bursts exceed %d clear assessments (+1 straddle credit)",
			bursts, clear))
	}
	if m.attemptActive {
		if m.be < m.minBE || m.be > m.maxBE {
			v = append(v, fmt.Sprintf("backoff exponent %d outside [%d,%d]", m.be, m.minBE, m.maxBE))
		}
		if m.nb > m.maxBackoffs {
			v = append(v, fmt.Sprintf("attempt alive after %d busy verdicts (max %d)", m.nb, m.maxBackoffs))
		}
	}
	return v
}

// NewCSMABS wires the base station of the slotted CSMA/CA protocol: the
// static TDMA base station's beacon cadence, join handling and silence
// reclaim, with data frames attributed by their sender-ID header instead
// of slot timing (any member may transmit at any contention offset). A
// zero StaticCycle selects DefaultCSMACycle; it admits MaxDynamicSlots
// members (the contention period has no slot geometry to limit it).
func NewCSMABS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *BS {
	if err := validateCSMAParams(cfg.Params); err != nil {
		panic(err)
	}
	if cfg.StaticCycle <= 0 {
		cfg.StaticCycle = DefaultCSMACycle
	}
	bs := newBS(k, cfg, sched, r, ledger, tracer, false, cfg.Profile.MAC.MaxDynamicSlots)
	bs.idHeader = true
	return bs
}
