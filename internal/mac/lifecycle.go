package mac

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// nodeState is the join state machine.
type nodeState int

const (
	stateSearching  nodeState = iota // continuous listen for a first beacon
	stateRequesting                  // beacon-synced, slot request pending
	stateJoined                      // slot held, steady-state duty cycle
	stateCrashed                     // powered off by a fault; waiting for reboot
	stateParked                      // beacon-only: slot released, no data path
)

// NodeConfig parameterises a node-side MAC instance.
type NodeConfig struct {
	// Protocol selects the MAC from the registry.
	Protocol Protocol
	// Params tunes the contention protocols (ignored by TDMA).
	Params  Params
	NodeID  uint8
	Profile platform.Profile
	// Plan is the BAN's address assignment; the zero value selects
	// packet.DefaultPlan(). Co-located networks use distinct plans.
	Plan packet.AddressPlan
	// ClockDriftPPM is the node oscillator's frequency error in parts
	// per million (signed; positive = the node's clock runs slow, so its
	// timers fire late). Every interval the node times off a beacon
	// stretches by this factor; the beacon guard margins exist to absorb
	// exactly this error. Crystals sit at ±20-100 ppm; the MSP430's
	// internal DCO can be off by 1-3% (10000-30000 ppm), which overruns
	// the calibrated guards at long cycles.
	ClockDriftPPM float64
}

// txItem is one queued payload with its retransmission count.
type txItem struct {
	payload    []byte
	retries    int
	enqueuedAt sim.Time
}

// txOp names the frame a contention attempt or a strobe train is trying
// to put on air.
type txOp int

const (
	opNone txOp = iota
	opSSR
	opData
	opRelease
)

// accessPolicy is what a protocol's channel-access code supplies to the
// node lifecycle core. The core owns join state, the transmit queue, the
// acknowledgement window and loss accounting; it calls back here at the
// three points where protocols differ.
type accessPolicy interface {
	// resetAccess drops the protocol's own channel-access state when the
	// core resets the node (crash, park, rejoin).
	resetAccess()
	// queued runs after Send accepted a payload.
	queued()
	// ackLost runs after an ack timeout retried or dropped the in-flight
	// frame.
	ackLost()
}

// nodeCore is the node-side MAC lifecycle every protocol embeds: join
// state and availability accounting, the transmit queue with its
// retry/drop path, the acknowledgement window, crash/park resets, the
// degradation flags, and the loss-category accumulators.
type nodeCore struct {
	k      *sim.Kernel
	cfg    NodeConfig
	name   string
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *metrics.Recorder
	policy accessPolicy
	// dataHeader is the per-frame header a protocol prepends to data
	// payloads (the contention MACs' sender ID); a lost frame's collision
	// airtime includes it.
	dataHeader int

	state    nodeState
	onJoined []func()
	// gen invalidates kernel events armed before a crash: every scheduled
	// step carries the generation it was issued under in its kernel arg
	// (see stepArg) and returns without effect when a crash has bumped
	// it since.
	gen uint64
	// ackTimeoutStep is ackTimedOut bound once (see bind).
	ackTimeoutStep sim.ArgHandler
	// joinedSince/joinedAccum track slot-holding time for the
	// availability metric.
	joinedSince sim.Time
	joinedAccum sim.Time
	// joinedEver/rejoinArmed/rejoinFrom time the rejoin-latency
	// histogram: once a node has held a slot, every return to the search
	// state (missed-beacon resync, dropped from the slot table, cold
	// boot after a crash) starts a rejoin clock that stops when a slot
	// is held again.
	joinedEver  bool
	rejoinArmed bool
	rejoinFrom  sim.Time

	queue    []txItem
	inFlight *txItem // frame in the FIFO / awaiting ack (for retry); nil or &flight
	flight   txItem
	// ctrlBuf is marshal scratch for control frames (SSR, Release,
	// strobe). A node sends at most one control frame at a time, so one
	// buffer suffices.
	ctrlBuf  []byte
	ssrNonce uint16

	ack rxWindow // the data acknowledgement wait

	// Graceful-degradation controls (battery lifecycle).
	stretchEvery   int    // skip every this-many transmit opportunities (< 2 = off)
	stretchCount   uint64 // opportunities seen, driving the stretch cadence
	beaconOnly     bool   // final low-battery mode requested by the node layer
	releasePending bool   // the voluntary release still has to fly

	stats Stats
	// carrySent credits a frame transmitted before the last accounting
	// reset whose ack was still pending when the counters zeroed: its
	// eventual resolution (ack, timeout, abandon) increments a counter
	// with no matching DataSent, and the frame-conservation audit must
	// balance that epoch straddle.
	carrySent uint64
	// Accounting for the paper's loss categories.
	controlRxTime sim.Time
	controlTxTime sim.Time
	joinIdleTime  sim.Time
}

// newNodeCore applies the default address plan and binds the core to
// its stack and to the protocol's access policy.
func newNodeCore(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder, policy accessPolicy) nodeCore {
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	return nodeCore{
		k:      k,
		cfg:    cfg,
		name:   r.Name(),
		sched:  sched,
		radio:  r,
		ledger: ledger,
		tracer: tracer,
		policy: policy,
	}
}

// bind binds the core's kernel steps once the core sits at its final
// address inside the protocol's MAC; constructors call it after
// embedding.
func (c *nodeCore) bind() { c.ackTimeoutStep = c.ackTimedOut }

// stepArg packs a crash generation and a small step operand (a txOp, a
// window stride) into one kernel arg, so a MAC step bound once can
// carry what its closure used to capture.
func stepArg(gen uint64, v int) uint64 { return gen<<8 | uint64(v) }

// stepLive unpacks a stepArg: the operand, and whether the step was
// armed under the current generation (false: armed before a crash).
func (c *nodeCore) stepLive(arg uint64) (int, bool) {
	return int(arg & 0xff), arg>>8 == c.gen
}

// popQueue moves the head of the transmit queue into the in-flight
// slot.
func (c *nodeCore) popQueue() *txItem {
	c.flight = popFront(&c.queue)
	c.inFlight = &c.flight
	return c.inFlight
}

// popFront removes and returns the head of a FIFO slice, shifting the
// rest down in place so the backing array is reused.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	*q = s[:n]
	return v
}

// OnJoined implements Mac. Multiple callbacks may be registered; each
// fires on every completed join handshake (including rejoins after a
// missed-beacon resync or a crash/reboot cycle).
func (c *nodeCore) OnJoined(fn func()) { c.onJoined = append(c.onJoined, fn) }

// Joined implements Mac.
func (c *nodeCore) Joined() bool { return c.state == stateJoined }

// Stats implements Mac.
func (c *nodeCore) Stats() Stats { return c.stats }

// ControlRxTime reports receiver-on time spent in control windows
// (beacon, CCA, strobe-gap and ack listening) for loss accounting.
func (c *nodeCore) ControlRxTime() sim.Time { return c.controlRxTime }

// ControlTxTime reports transmit time spent on control frames.
func (c *nodeCore) ControlTxTime() sim.Time { return c.controlTxTime }

// JoinIdleTime reports the continuous-listen time burned while searching
// for the network (the paper's idle-listening loss).
func (c *nodeCore) JoinIdleTime() sim.Time { return c.joinIdleTime }

// Generation reports the crash generation counter. It only ever grows
// (each crash bumps it to invalidate stale kernel events), which the
// audit engine checks across crash/reboot cycles.
func (c *nodeCore) Generation() uint64 { return c.gen }

// ResetAccounting zeroes statistics and loss accumulators (post-warmup).
func (c *nodeCore) ResetAccounting() {
	c.stats = Stats{}
	c.carrySent = 0
	if c.ack.open {
		// A frame sent in the old epoch resolves in the new one.
		c.carrySent = 1
	}
	c.controlRxTime = 0
	c.controlTxTime = 0
	c.joinIdleTime = 0
	c.joinedAccum = 0
	if c.state == stateJoined {
		c.joinedSince = c.k.Now()
	}
}

// JoinedTime reports the cumulative time the node has held a slot since
// the last ResetAccounting — the numerator of the availability metric.
func (c *nodeCore) JoinedTime() sim.Time {
	t := c.joinedAccum
	if c.state == stateJoined {
		t += c.k.Now() - c.joinedSince
	}
	return t
}

// noteLeftSlot closes the joined-time interval when the node loses or
// abandons its slot.
func (c *nodeCore) noteLeftSlot() {
	if c.state == stateJoined {
		c.joinedAccum += c.k.Now() - c.joinedSince
	}
}

// armRejoinClock starts the rejoin-latency clock unless it is running.
func (c *nodeCore) armRejoinClock() {
	if !c.rejoinArmed {
		c.rejoinArmed = true
		c.rejoinFrom = c.k.Now()
	}
}

// enterJoined completes a join handshake: the slot (or membership) is
// held from now, the rejoin clock stops, and the join callbacks run. A
// negative slot marks a protocol without slot indices.
func (c *nodeCore) enterJoined(now sim.Time, slot int) {
	c.state = stateJoined
	c.joinedSince = now
	if c.rejoinArmed {
		c.tracer.Observe(c.name, metrics.HistRejoin, now-c.rejoinFrom)
		c.rejoinArmed = false
	}
	c.joinedEver = true
	if slot < 0 {
		c.tracer.Record(now, c.name, metrics.KindJoined, "")
	} else {
		c.tracer.Recordf(now, c.name, metrics.KindJoined, "slot=%d", slot)
	}
	for _, fn := range c.onJoined {
		fn()
	}
}

// Crash models a node power loss: the complete protocol state — join
// status, slot, transmit queue, in-flight frame, timing references — is
// lost, and every armed protocol event is invalidated. The radio, MCU
// and application are crashed separately by the node layer; restart the
// MAC with Start (a cold boot through the normal join path). beaconOnly
// survives on purpose: it mirrors the battery level, which a power cycle
// does not replenish, so a rebooted beacon-only node parks again.
func (c *nodeCore) Crash() {
	c.gen++
	c.drain(stateCrashed, metrics.KindCrash)
}

// park settles into beacon-only mode: no slot, no data path.
func (c *nodeCore) park() { c.drain(stateParked, metrics.KindParked) }

// drain enters state with the data path emptied — ack window abandoned,
// queue and in-flight frame dropped, channel access reset — and traces
// kind.
func (c *nodeCore) drain(state nodeState, kind metrics.Kind) {
	c.closeAckWindow()
	c.noteLeftSlot()
	c.state = state
	c.queue = nil
	c.inFlight = nil
	c.releasePending = false
	c.policy.resetAccess()
	c.tracer.Record(c.k.Now(), c.name, kind, "")
}

// SetSlotStretch makes the node sleep through every k-th transmit
// opportunity — the duty-cycle-stretching rung of the battery
// graceful-degradation ladder. k < 2 disables stretching.
func (c *nodeCore) SetSlotStretch(k int) { c.stretchEvery = k }

// stretchSkip reports whether the stretch rung sleeps through this
// opportunity, counting it and tracing the skip with format applied to
// the opportunity count. The queue keeps filling meanwhile; its cap
// converts the stretch into deterministic tail drops instead of latency
// creep.
func (c *nodeCore) stretchSkip(format string) bool {
	if c.stretchEvery < 2 {
		return false
	}
	c.stretchCount++
	if c.stretchCount%uint64(c.stretchEvery) != 0 {
		return false
	}
	c.stats.SlotsSkipped++
	c.tracer.Recordf(c.k.Now(), c.name, metrics.KindSlotSkip, format, c.stretchCount)
	return true
}

// Send implements Mac.
func (c *nodeCore) Send(payload []byte) bool {
	if len(c.queue) >= txQueueCap {
		c.stats.QueueDrops++
		return false
	}
	c.queue = append(c.queue, txItem{payload: payload, enqueuedAt: c.k.Now()})
	c.policy.queued()
	return true
}

// noteLatency records the in-flight frame's queueing delay as its burst
// starts.
func (c *nodeCore) noteLatency() {
	if c.inFlight == nil {
		return
	}
	lat := c.k.Now() - c.inFlight.enqueuedAt
	c.stats.LatencySum += lat
	c.stats.LatencyCount++
	if lat > c.stats.LatencyMax {
		c.stats.LatencyMax = lat
	}
	c.tracer.Observe(c.name, metrics.HistSlotWait, lat)
}

// chargeControlTx charges one control burst of n payload bytes to the
// control-overhead loss category.
func (c *nodeCore) chargeControlTx(n int) {
	p := &c.cfg.Profile
	txDur := p.Radio.TxSettle + p.Radio.Airtime(n)
	c.controlTxTime += txDur
	c.ledger.AttributeLoss(energy.LossControl, c.radio.TxPowerW()*txDur.Seconds())
}

// accountControlRx charges a closed receive window to the control
// overhead loss category.
func (c *nodeCore) accountControlRx(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("mac %s: negative control window", c.name))
	}
	c.controlRxTime += d
	c.ledger.AttributeLoss(energy.LossControl, c.radio.RxPowerW()*d.Seconds())
}

// rxWindow is a bounded receive window awaiting one frame: open since
// at, with timeout armed to close it should the frame never come.
type rxWindow struct {
	open    bool
	at      sim.Time
	timeout sim.EventID
}

// listen opens w now on the node's own address; the caller arms
// w.timeout.
func (c *nodeCore) listen(w *rxWindow) {
	w.open = true
	w.at = c.k.Now()
	c.radio.SetRxAddresses(c.cfg.Plan.NodeAddr(c.cfg.NodeID))
	c.radio.StartRx()
}

// shut closes w on its verdict — the awaited frame arrived (cancel
// disarms the timeout) or the timeout fired — sleeping the radio and
// charging the window to control overhead. It reports false when w was
// not open.
func (c *nodeCore) shut(w *rxWindow, cancel bool) bool {
	if !w.open {
		return false
	}
	w.open = false
	if cancel {
		c.k.Cancel(w.timeout)
	}
	c.radio.PowerDown()
	c.accountControlRx(c.k.Now() - w.at)
	return true
}

// drop tears w down without a verdict, when the state that owned it is
// reset; it reports false when w was not open.
func (c *nodeCore) drop(w *rxWindow) bool {
	if !w.open {
		return false
	}
	w.open = false
	c.k.Cancel(w.timeout)
	return true
}

// openAckWindow listens for the base station's acknowledgement of the
// data frame that just flew.
func (c *nodeCore) openAckWindow() {
	c.listen(&c.ack)
	c.ack.timeout = c.k.ScheduleArg(c.k.Now()+c.cfg.Profile.MAC.AckTimeout, c.ackTimeoutStep, stepArg(c.gen, 0))
}

// ackTimedOut is the acknowledgement window's timeout step.
func (c *nodeCore) ackTimedOut(_ *sim.Kernel, arg uint64) {
	if _, live := c.stepLive(arg); live {
		c.onAckTimeout()
	}
}

// ackReceived closes the acknowledgement window on success; it reports
// false when no window was open.
func (c *nodeCore) ackReceived() bool {
	now := c.k.Now()
	opened := c.ack.at
	if !c.shut(&c.ack, true) {
		return false
	}
	c.tracer.Observe(c.name, metrics.HistTxToAck, now-opened)
	c.stats.DataAcked++
	c.inFlight = nil
	c.tracer.Record(now, c.name, metrics.KindAckRx, "")
	return true
}

// onAckTimeout treats the frame as lost: its transmit energy was wasted
// (the paper's collision loss) and the frame is retried or dropped.
func (c *nodeCore) onAckTimeout() {
	if !c.shut(&c.ack, false) {
		return
	}
	c.stats.AckMissed++
	c.tracer.Record(c.k.Now(), c.name, metrics.KindAckMissed, "")

	p := &c.cfg.Profile
	if c.inFlight != nil {
		txDur := p.Radio.TxSettle + p.Radio.Airtime(c.dataHeader+len(c.inFlight.payload))
		c.ledger.AttributeLoss(energy.LossCollision, c.radio.TxPowerW()*txDur.Seconds())
		if c.inFlight.retries < maxRetries {
			// Requeue at the front; the protocol's own checks gate the
			// next attempt.
			c.inFlight.retries++
			c.stats.Retries++
			c.queue = append(c.queue, txItem{})
			copy(c.queue[1:], c.queue)
			c.queue[0] = *c.inFlight
		} else {
			// Retries exhausted: the frame is gone for good.
			c.stats.DataDropped++
			c.tracer.Record(c.k.Now(), c.name, metrics.KindDataDropped, "")
		}
	}
	c.inFlight = nil
	c.policy.ackLost()
}

// closeAckWindow tears down a pending acknowledgement wait when the
// protocol state that owned it is being reset (crash, rejoin, park).
// The transmitted frame can no longer be resolved — its ack would be
// ignored and its timeout must not fire against the fresh state — so it
// is counted as abandoned, keeping the frame-conservation law exact:
// without this, a stale ackTimeout would increment AckMissed with no
// in-flight frame to retry or drop.
func (c *nodeCore) closeAckWindow() {
	if c.drop(&c.ack) {
		c.stats.Abandoned++
	}
}

// AuditFrame checks the frame-conservation laws against the node's live
// counters and returns a detail string per broken law (nil when they
// hold). Safe to call at any instant: the counters and the ack window
// are updated atomically within each kernel event.
func (c *nodeCore) AuditFrame() []string {
	return AuditFrameStats(c.stats, c.carrySent, c.ack.open)
}

// AuditFrameStats is the pure form of the frame-conservation laws, over
// a counter snapshot: every missed ack became a retry or a terminal
// drop, and every transmitted burst is resolved (acked, timed out or
// abandoned) except at most one awaiting its ack. carrySent credits a
// frame sent before the last accounting reset whose resolution lands in
// the current epoch (see NodeMAC.ResetAccounting).
func AuditFrameStats(s Stats, carrySent uint64, ackPending bool) []string {
	var v []string
	if s.AckMissed != s.Retries+s.DataDropped {
		v = append(v, fmt.Sprintf("AckMissed %d != Retries %d + DataDropped %d",
			s.AckMissed, s.Retries, s.DataDropped))
	}
	pending := uint64(0)
	if ackPending {
		pending = 1
	}
	if s.DataSent+carrySent != s.DataAcked+s.AckMissed+s.Abandoned+pending {
		v = append(v, fmt.Sprintf(
			"DataSent %d + carried %d != DataAcked %d + AckMissed %d + Abandoned %d + pending %d",
			s.DataSent, carrySent, s.DataAcked, s.AckMissed, s.Abandoned, pending))
	}
	return v
}

// --- beaconed lifecycle --------------------------------------------------

// beaconAccess is the access policy of a beaconed MAC: besides the core
// hooks, it acts on each beacon cycle once the beacon is parsed.
type beaconAccess interface {
	accessPolicy
	// request starts this cycle's slot request (state requesting).
	request()
	// release sends the voluntary release (joined, beacon-only pending).
	release()
	// transmit takes this cycle's data opportunity (joined).
	transmit()
}

// parkBeaconEvery is the parked node's doze ratio: a beacon-only node
// wakes for one beacon window in this many cycles and dead-reckons
// across the gap. Beacon listening dominates a parked node's budget
// (there is no other traffic left), so the ratio — not the parking
// itself — is what makes the final degradation rung cheap; the residual
// drift accumulated over the dozed cycles stays far inside the guard
// margins at crystal tolerances.
const parkBeaconEvery = 8

// beaconCore extends the node core with what the beacon-synchronised
// MACs (TDMA, slotted CSMA/CA) share: beacon search and listen windows,
// dead reckoning across missed beacons, the grant scan, rejoin, and the
// transmit-FIFO flags.
type beaconCore struct {
	nodeCore
	access beaconAccess

	// Policy inputs, fixed at construction.
	guard       sim.Time // beacon guard margin
	beaconMax   int      // beacon payload bound, for window-timeout sizing
	parseCycles int64    // per-beacon parse cost
	// yieldToTx loses a beacon window that finds the radio still in a
	// late burst instead of opening it.
	yieldToTx bool
	// rejoinUnlisted rejoins a joined node that a beacon's full slot
	// table no longer lists.
	rejoinUnlisted bool
	// ackProcess charges the ack-process interrupt after each ack.
	ackProcess bool

	t0      sim.Time // air-start instant of the current cycle's beacon
	cycle   sim.Time // cycle length from the latest beacon
	slot    int      // slot (TDMA) or association index (CSMA); -1 when none
	loading bool     // FIFO clock-in in progress
	loaded  bool

	missed       int
	window       rxWindow // the beacon listen window
	joinListenAt sim.Time
	beacon       packet.Beacon // decode scratch; Entries is reused by the next beacon

	// Steps bound once by bind.
	windowOpenStep    sim.ArgHandler
	windowTimeoutStep sim.ArgHandler
	afterBeaconFn     func()
	ackProcessedFn    func()
}

// bind binds the core's steps once the core sits at its final address;
// access must already be set.
func (c *beaconCore) bind() {
	c.nodeCore.bind()
	c.windowOpenStep = c.openWindow
	c.windowTimeoutStep = c.windowTimedOut
	c.afterBeaconFn = c.afterBeacon
	c.ackProcessedFn = c.access.queued
}

// Start implements Mac: listen continuously for a first beacon.
func (c *beaconCore) Start() {
	c.state = stateSearching
	c.radio.SetRxAddresses(c.cfg.Plan.Beacon)
	c.radio.StartRx()
	c.joinListenAt = c.k.Now()
	if c.joinedEver {
		// A restart after a crash: the rejoin clock runs from the cold
		// boot, mirroring fault.Outcome.TimeToRejoin.
		c.armRejoinClock()
	}
}

// Slot implements Mac.
func (c *beaconCore) Slot() int { return c.slot }

// CycleLength implements Mac.
func (c *beaconCore) CycleLength() sim.Time { return c.cycle }

// Crash implements NodeMAC (see nodeCore.Crash for the model).
func (c *beaconCore) Crash() {
	c.drop(&c.window)
	c.missed = 0
	c.slot, c.loading, c.loaded = -1, false, false
	c.nodeCore.Crash()
}

// EnterBeaconOnly drops the node to the final degradation rung: the
// application is already stopped by the caller; the MAC hands its slot
// back to the base station (so the dynamic cycle compacts immediately)
// and then keeps only beacon synchronisation alive. The mode is sticky —
// it mirrors battery charge, which never comes back.
func (c *beaconCore) EnterBeaconOnly() {
	if c.beaconOnly {
		return
	}
	c.beaconOnly = true
	switch c.state {
	case stateJoined:
		c.releasePending = true // announce the release, then park
	case stateRequesting:
		c.park()
	case stateSearching, stateCrashed, stateParked:
		// Searching parks on the next beacon; crashed parks after the
		// reboot's first beacon.
	}
}

// park settles into beacon-only mode: no slot, no data path, but beacon
// windows stay armed so the node keeps network time (and stays visible
// to the operator through beacon-rx events).
func (c *beaconCore) park() {
	c.slot, c.loading, c.loaded = -1, false, false
	c.nodeCore.park()
}

// local converts an interval the node times with its own oscillator into
// the true elapsed simulation time, applying the clock drift.
func (c *beaconCore) local(d sim.Time) sim.Time {
	if approx.Unset(c.cfg.ClockDriftPPM) {
		return d
	}
	return sim.Time(float64(d) * (1 + c.cfg.ClockDriftPPM*1e-6))
}

// nextWindowOpen reports when this node expects to open its next beacon
// listen window — the hard deadline every transmission must clear.
func (c *beaconCore) nextWindowOpen() sim.Time {
	return c.t0 + c.local(c.cycle-c.guard-c.cfg.Profile.Radio.RxSettle)
}

func (c *beaconCore) onFrame(f packet.Frame) {
	switch {
	case f.Dest == c.cfg.Plan.Beacon:
		if c.beacon.Unmarshal(f.Payload) == nil {
			c.handleBeacon(&c.beacon, len(f.Payload))
		}
	case f.Dest == c.cfg.Plan.NodeAddr(c.cfg.NodeID) && packet.IsAck(f.Payload):
		if c.ackReceived() && c.ackProcess {
			c.sched.Interrupt("ack-process", c.cfg.Profile.Cost.AckProcess, c.ackProcessedFn)
		}
	}
}

// handleBeacon runs (in interrupt context) after the beacon's FIFO
// drain: it resynchronises, scans the grants, and schedules the cycle.
// b is the core's decode scratch: nothing may keep b.Entries past the
// call.
func (c *beaconCore) handleBeacon(b *packet.Beacon, payloadLen int) {
	now := c.k.Now()
	frameEnd := c.radio.LastRxFrameEnd()
	airStart := frameEnd - c.cfg.Profile.Radio.Airtime(payloadLen)

	// Close the listen window.
	c.radio.PowerDown()
	if c.drop(&c.window) {
		c.accountControlRx(now - c.window.at)
	} else if c.state == stateSearching {
		// The whole continuous search listen is idle listening except
		// the beacon frame itself.
		idle := now - c.joinListenAt
		c.joinIdleTime += idle
		c.ledger.AttributeLoss(energy.LossIdleListening,
			c.radio.RxPowerW()*idle.Seconds())
	}

	c.stats.BeaconsHeard++
	c.missed = 0
	c.t0 = airStart
	c.cycle = sim.Time(b.CycleMicros) * sim.Microsecond
	if c.cycle <= 0 {
		return // malformed beacon; wait for the next one
	}
	c.tracer.Recordf(now, c.name, metrics.KindBeaconRx, "seq=%d cycle=%v", b.Seq, c.cycle)

	if c.state == stateSearching {
		c.state = stateRequesting
	}
	if c.beaconOnly && c.state == stateRequesting {
		// A beacon-only node never requests a slot: synchronise and park.
		c.park()
	}

	// Grant / slot-table scan.
	found := false
	for _, e := range b.Entries {
		if e.NodeID != c.cfg.NodeID {
			continue
		}
		found = true
		if c.state == stateParked {
			// We released this slot; a stale table row (our release
			// frame lost, silence reclaim still pending) must not
			// re-join us.
			break
		}
		c.slot = int(e.Slot)
		if c.state != stateJoined {
			c.enterJoined(now, c.slot)
		}
		break
	}
	if c.rejoinUnlisted && c.state == stateJoined && !found {
		// The base station no longer lists us: rejoin.
		c.rejoin()
		return
	}

	// The beacon-parse task models the per-cycle OS/MAC work; follow-up
	// actions run when it completes.
	c.sched.Interrupt("beacon-parse", c.parseCycles, c.afterBeaconFn)
}

// afterBeacon schedules this cycle's activity once parsing is done.
func (c *beaconCore) afterBeacon() {
	c.scheduleNextWindow()
	switch c.state {
	case stateRequesting:
		c.access.request()
	case stateJoined:
		if c.releasePending {
			c.access.release()
			return
		}
		if c.stretchSkip("cycle=%d") {
			return
		}
		c.access.transmit()
	}
}

// windowStride reports how many cycles ahead the next beacon window
// sits: 1 normally, the doze ratio when parked.
func (c *beaconCore) windowStride() sim.Time {
	if c.state == stateParked {
		return parkBeaconEvery
	}
	return 1
}

// scheduleNextWindow arms the receiver for the next expected beacon.
func (c *beaconCore) scheduleNextWindow() {
	stride := c.windowStride()
	openAt := c.t0 + c.local(stride*c.cycle-c.guard-c.cfg.Profile.Radio.RxSettle)
	now := c.k.Now()
	if openAt <= now {
		openAt = now // degenerate cycles: open immediately
	}
	c.k.ScheduleArg(openAt, c.windowOpenStep, stepArg(c.gen, int(stride)))
}

// openWindow opens the beacon listen window scheduleNextWindow armed;
// the arg carries the window's stride.
func (c *beaconCore) openWindow(k *sim.Kernel, arg uint64) {
	v, live := c.stepLive(arg)
	if !live {
		return // armed before a crash
	}
	if c.window.open || c.state == stateSearching {
		return
	}
	if c.yieldToTx && c.radio.Mode() == radio.ModeTx {
		// A late burst is still draining; its completion handler
		// powers the radio down, and the beacon is lost this cycle.
		c.missBeacon()
		return
	}
	p := &c.cfg.Profile
	stride := sim.Time(v)
	c.window.open = true
	c.window.at = k.Now()
	c.radio.SetRxAddresses(c.cfg.Plan.Beacon)
	c.radio.StartRx()
	// The timeout sits one guard past the locally-expected beacon so
	// the tolerance to clock error is symmetric: ±guard/cycle for
	// early and late clocks alike. A saturated MCU can delay the
	// whole pipeline past the nominal deadline; clamp so the window
	// closes immediately instead of scheduling into the past.
	deadline := c.t0 + c.local(stride*c.cycle) + c.guard +
		p.Radio.Airtime(c.beaconMax) +
		p.Radio.RxClockOut(c.beaconMax) + 500*sim.Microsecond
	if deadline < k.Now() {
		deadline = k.Now()
	}
	c.window.timeout = k.ScheduleArg(deadline, c.windowTimeoutStep, stepArg(c.gen, 0))
}

// windowTimedOut closes a beacon window that heard nothing.
func (c *beaconCore) windowTimedOut(_ *sim.Kernel, arg uint64) {
	if _, live := c.stepLive(arg); !live {
		return
	}
	if c.shut(&c.window, false) {
		c.missBeacon()
	}
}

// missBeacon counts a beacon the node did not hear and dead-reckons the
// next cycle from the last good reference — drift compounds here, one
// silent cycle (or dozed stretch) at a time — or rejoins after too many.
func (c *beaconCore) missBeacon() {
	c.stats.BeaconsMissed++
	c.missed++
	if c.missed >= missedBeaconRejoinThreshold {
		c.rejoin()
		return
	}
	c.t0 += c.local(c.windowStride() * c.cycle)
	c.scheduleNextWindow()
}

// rejoin abandons the slot and restarts the join procedure.
func (c *beaconCore) rejoin() {
	c.stats.Rejoins++
	c.closeAckWindow()
	c.noteLeftSlot()
	c.armRejoinClock()
	c.state = stateSearching
	c.slot = -1
	c.missed = 0
	c.loaded = false
	c.inFlight = nil
	c.access.resetAccess()
	c.radio.SetRxAddresses(c.cfg.Plan.Beacon)
	c.radio.StartRx()
	c.joinListenAt = c.k.Now()
}
