package mac

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// BSConfig parameterises the base-station MAC.
type BSConfig struct {
	// Protocol selects the MAC from the registry.
	Protocol Protocol
	// Params tunes the contention protocols (ignored by TDMA).
	Params Params
	// Profile is normally platform.BaseStation().
	Profile platform.Profile
	// StaticCycle is the fixed beacon cycle (static TDMA and CSMA/CA).
	StaticCycle sim.Time
	// Plan is the BAN's address assignment; the zero value selects
	// packet.DefaultPlan().
	Plan packet.AddressPlan
	// ReclaimAfter frees the slot of a joined node that has been silent
	// for this many consecutive beacon cycles (it crashed, walked out of
	// range, or lost sync). 0 disables reclamation — the historical
	// behaviour, and the right setting for applications that legitimately
	// send less than once per cycle.
	ReclaimAfter int
}

// BSStats counts base-station events.
type BSStats struct {
	BeaconsSent    uint64
	DataReceived   uint64
	AcksSent       uint64
	SSRReceived    uint64
	SSRRejected    uint64
	StrayFrames    uint64
	SlotsReclaimed uint64
	// SlotsReleased counts voluntary releases from nodes entering
	// beacon-only mode (distinct from silence reclaims).
	SlotsReleased uint64
	// Probes/StrobesHeard/EarlyAcksSent are the LPL receiver's
	// preamble-sampling counters (zero for beaconed protocols): channel
	// probes performed, strobes detected, and strobe trains truncated
	// with an early ack.
	Probes        uint64
	StrobesHeard  uint64
	EarlyAcksSent uint64
}

// RxRecord is one data frame the base station accepted.
type RxRecord struct {
	Node    uint8
	Payload []byte
	At      sim.Time
}

// grantRepeat is how many consecutive beacons repeat a static grant
// (the grant then expires to keep the steady-state beacon small).
const grantRepeat = 2

// grant is a static-TDMA slot grant still being advertised.
type grant struct {
	entry packet.SlotEntry
	left  int // beacons remaining
}

// tableWords names a protocol's association index in trace details and
// audit messages: a TDMA slot, or a contention MAC's member index.
type tableWords struct {
	label    string // trace detail key ("slot", "member")
	index    string // audit noun for one index
	entries  string // audit noun for the index set
	indexMap string // audit name of the index→node map
}

var (
	slotWords   = tableWords{label: "slot", index: "slot", entries: "slots", indexMap: "slot map"}
	memberWords = tableWords{label: "member", index: "member index", entries: "indices", indexMap: "index map"}
)

// bsCore is the base-station state every protocol shares: the stack
// handles, the membership table (a node↔index bijection with silence
// aging and reclaim), and the received-frame log.
type bsCore struct {
	k      *sim.Kernel
	cfg    BSConfig
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *metrics.Recorder
	words  tableWords

	maxSlots int
	nodeSlot map[uint8]int
	slotNode map[int]uint8
	// silent counts consecutive regulation periods (beacon cycles, probe
	// intervals) without a frame from each member, for reclaim.
	silent map[uint8]int

	onData   func(rec RxRecord)
	received []RxRecord
	stats    BSStats
	started  bool
	// ackBuf is marshal scratch for acknowledgements; it backs at most
	// one loaded frame at a time.
	ackBuf []byte
	// ackFlown runs once a data acknowledgement has flown, returning the
	// receiver to the protocol's listening state; bound at construction.
	ackFlown func()
	// The acknowledgement pipeline runs on steps bound once (see bind),
	// with each stage's pending work queued in order: acks awaits the
	// turnaround ISR, ackLoads the FIFO load, forwards the data-handle
	// task. The base station never crashes, so every stage completes in
	// issue order.
	acks          []ackJob
	ackLoads      []RxRecord
	forwards      []RxRecord
	ackTurnaround func()
	ackLoaded     func()
	ackSent       func()
	forward       func()
	// inBeaconPrep marks a beaconed base station's SB region: from beacon
	// preparation until the beacon has flown, the radio is owned by the
	// beacon path and data acknowledgements are suppressed (the sender
	// retries).
	inBeaconPrep bool
}

// newBSCore binds the shared base-station state; maxSlots is the
// protocol's admission cap.
func newBSCore(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder, words tableWords, maxSlots int) bsCore {
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	return bsCore{
		k:        k,
		cfg:      cfg,
		sched:    sched,
		radio:    r,
		ledger:   ledger,
		tracer:   tracer,
		words:    words,
		maxSlots: maxSlots,
		nodeSlot: make(map[uint8]int),
		slotNode: make(map[int]uint8),
		silent:   make(map[uint8]int),
	}
}

// ackJob is one data acknowledgement awaiting its turnaround.
type ackJob struct {
	node uint8
	rec  RxRecord
}

// bind binds the core's steps once the core sits at its final address
// inside the protocol's base station.
func (b *bsCore) bind() {
	b.ackTurnaround = b.onAckTurnaround
	b.ackLoaded = b.onAckLoaded
	b.ackSent = b.onAckSent
	b.forward = b.onForward
}

// OnData registers a callback for each accepted data frame (the "forward
// to the PC/PDA" hook).
func (b *bsCore) OnData(fn func(rec RxRecord)) { b.onData = fn }

// Received returns the accepted data frames in arrival order.
func (b *bsCore) Received() []RxRecord { return b.received }

// Stats returns a copy of the counters.
func (b *bsCore) Stats() BSStats { return b.stats }

// ResetAccounting zeroes statistics and the received-frame log.
func (b *bsCore) ResetAccounting() {
	b.stats = BSStats{}
	b.received = nil
}

// Nodes reports the member node IDs in index order.
func (b *bsCore) Nodes() []uint8 {
	idxs := b.indices()
	out := make([]uint8, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, b.slotNode[i])
	}
	return out
}

// indices lists the assigned indices in ascending order.
func (b *bsCore) indices() []int {
	idxs := make([]int, 0, len(b.slotNode))
	for i := range b.slotNode {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

// memberIDs lists the member node IDs in ascending order.
func (b *bsCore) memberIDs() []uint8 {
	ids := make([]uint8, 0, len(b.nodeSlot))
	for id := range b.nodeSlot {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// listen turns the receiver on for the node-to-base addresses.
func (b *bsCore) listen() {
	b.radio.SetRxAddresses(b.cfg.Plan.BSData, b.cfg.Plan.BSCtrl)
	b.radio.StartRx()
}

// markStarted guards against a second Start.
func (b *bsCore) markStarted() {
	if b.started {
		panic("mac: base station started twice")
	}
	b.started = true
}

// admit answers a join request: a member keeps its index, a newcomer
// takes the lowest free one. ok is false (and the rejection counted)
// when the table is full — "once reached the limit no other nodes are
// accepted"; added reports a newcomer.
func (b *bsCore) admit(id uint8) (idx int, added, ok bool) {
	delete(b.silent, id)
	if idx, ok := b.nodeSlot[id]; ok {
		return idx, false, true
	}
	if len(b.nodeSlot) >= b.maxSlots {
		b.stats.SSRRejected++
		return 0, false, false
	}
	idx = b.nextFree()
	b.nodeSlot[id] = idx
	b.slotNode[idx] = id
	return idx, true, true
}

// nextFree returns the lowest unassigned index.
func (b *bsCore) nextFree() int {
	for i := 0; ; i++ {
		if _, used := b.slotNode[i]; !used {
			return i
		}
	}
}

// release drops id from the table, reporting the index it held.
func (b *bsCore) release(id uint8) (int, bool) {
	idx, ok := b.nodeSlot[id]
	if !ok {
		return 0, false
	}
	delete(b.nodeSlot, id)
	delete(b.slotNode, idx)
	delete(b.silent, id)
	return idx, true
}

// reclaimSilent ages every member's silence counter by one regulation
// period and retires members silent for ReclaimAfter consecutive periods
// (0 disables — the right setting for applications that legitimately
// send less than once per period). It reports whether any was retired.
func (b *bsCore) reclaimSilent() bool {
	if b.cfg.ReclaimAfter <= 0 || len(b.nodeSlot) == 0 {
		return false
	}
	reclaimed := false
	for _, id := range b.memberIDs() {
		b.silent[id]++
		if b.silent[id] < b.cfg.ReclaimAfter {
			continue
		}
		idx, _ := b.release(id)
		reclaimed = true
		b.stats.SlotsReclaimed++
		b.tracer.Recordf(b.k.Now(), "bs", metrics.KindSlotReclaim,
			"node=%d %s=%d after=%d", id, b.words.label, idx, b.cfg.ReclaimAfter)
	}
	return reclaimed
}

// headerSender attributes a contention data frame by its one-byte
// sender-ID header; frames too short to carry one, or from non-members,
// are counted as strays.
func (b *bsCore) headerSender(payload []byte) (uint8, bool) {
	if len(payload) <= packet.DataHeaderBytes {
		b.stats.StrayFrames++
		return 0, false
	}
	id := payload[0]
	if _, member := b.nodeSlot[id]; !member {
		b.stats.StrayFrames++
		return 0, false
	}
	return id, true
}

// accept logs a data frame from member node: its silence clears and the
// payload joins the received log.
func (b *bsCore) accept(node uint8, payload []byte) RxRecord {
	delete(b.silent, node)
	rec := RxRecord{Node: node, Payload: append([]byte(nil), payload...), At: b.k.Now()}
	b.received = append(b.received, rec)
	b.stats.DataReceived++
	b.tracer.Recordf(b.k.Now(), "bs", metrics.KindDataRx, "node=%d len=%d", node, len(payload))
	return rec
}

// ackData acknowledges node's data frame after the turnaround task, then
// hands rec to the data sink. The forwarding task is posted only once
// the ack is on its way, so it cannot delay the FIFO load past the
// sender's listen window.
func (b *bsCore) ackData(node uint8, rec RxRecord) {
	b.acks = append(b.acks, ackJob{node: node, rec: rec})
	b.sched.Interrupt("bs-ack-turnaround", b.cfg.Profile.Cost.BSAckTurnaround, b.ackTurnaround)
}

// onAckTurnaround loads the acknowledgement unless beacon preparation
// took the radio meanwhile.
func (b *bsCore) onAckTurnaround() {
	j := popFront(&b.acks)
	if b.inBeaconPrep {
		return
	}
	b.radio.Standby()
	b.ackBuf = packet.Ack{}.AppendMarshal(b.ackBuf[:0])
	b.ackLoads = append(b.ackLoads, j.rec)
	b.radio.Load(b.cfg.Plan.NodeAddr(j.node), b.ackBuf, b.ackLoaded)
}

// onAckLoaded fires the acknowledgement and posts the forwarding task.
func (b *bsCore) onAckLoaded() {
	rec := popFront(&b.ackLoads)
	b.radio.Fire(b.ackSent)
	// Forwarding to the collecting device, off the fast path.
	b.forwards = append(b.forwards, rec)
	if !b.sched.PostFn("bs-data-handle", b.cfg.Profile.Cost.BSDataHandle, b.forward) {
		b.forwards = b.forwards[:len(b.forwards)-1]
	}
}

func (b *bsCore) onAckSent() {
	b.stats.AcksSent++
	b.ackFlown()
}

// onForward hands the oldest acknowledged record to the data sink.
func (b *bsCore) onForward() {
	rec := popFront(&b.forwards)
	if b.onData != nil {
		b.onData(rec)
	}
}

// AuditTable checks that the membership maps are inverse bijections with
// every index inside the admission cap, returning a detail string per
// broken law.
func (b *bsCore) AuditTable() []string {
	var v []string
	w := b.words
	if len(b.nodeSlot) != len(b.slotNode) {
		v = append(v, fmt.Sprintf("%s maps out of step: %d nodes, %d %s",
			w.label, len(b.nodeSlot), len(b.slotNode), w.entries))
	}
	for _, id := range b.memberIDs() {
		idx := b.nodeSlot[id]
		if idx < 0 || idx >= b.maxSlots {
			v = append(v, fmt.Sprintf("node %d holds out-of-range %s %d (max %d)",
				id, w.index, idx, b.maxSlots))
			continue
		}
		if holder, ok := b.slotNode[idx]; !ok || holder != id {
			v = append(v, fmt.Sprintf("%s %d granted to node %d but the %s names node %d",
				w.index, idx, id, w.indexMap, holder))
		}
	}
	return v
}

// BS is the base station: it regulates the TDMA timing by broadcasting
// beacons, receives the nodes' data (acknowledging each frame), and
// assigns slots in answer to slot requests.
type BS struct {
	bsCore

	// dynamic selects the Figure 3 growing cycle and full-table beacons
	// over the Figure 2 fixed cycle and expiring grants; only
	// ProtoDynamic sets it (CSMA/CA keeps the static cycle).
	dynamic bool

	t0     sim.Time // air-start of the current beacon
	cycle  sim.Time // current cycle length
	seq    uint16
	grants []grant
	// needCompact defers dynamic-slot renumbering after a voluntary
	// release to the next beacon build (a safe point for the timing map).
	needCompact bool
	// idHeader switches data-frame sender attribution from slot timing to
	// the one-byte sender-ID header contention MACs prepend (set by the
	// CSMA wrapper; a contention sender may transmit at any offset).
	idHeader bool
	// beaconBuf is marshal scratch for the beacon, reused across cycles
	// so the steady-state beacon/ack path allocates nothing. The
	// inBeaconPrep guard keeps beacon and ack loads from overlapping.
	// entryBuf is the advertisement list's scratch.
	beaconBuf []byte
	entryBuf  []packet.SlotEntry
	// One beacon is in preparation at a time (the next is armed only
	// once the current one has flown), so its pipeline state lives
	// here: the target burst instant, whether the FIFO load completed
	// and whether the fire instant has come (the beacon flies when
	// both hold), and its airtime. The steps are bound once in NewBS.
	beaconFireAt  sim.Time
	beaconLoaded  bool
	beaconDue     bool
	beaconAir     sim.Time
	beaconPrep    sim.ArgHandler
	beaconBuild   func()
	beaconInFIFO  func()
	beaconDueStep sim.ArgHandler
	beaconFlown   func()
}

// NewBS wires a TDMA base station over its radio and OS; the dynamic
// variant when cfg.Protocol is ProtoDynamic, else the static one.
func NewBS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *BS {
	if cfg.Protocol == ProtoDynamic {
		return newBS(k, cfg, sched, r, ledger, tracer, true, cfg.Profile.MAC.MaxDynamicSlots)
	}
	return newBS(k, cfg, sched, r, ledger, tracer, false, cfg.Profile.MAC.MaxStaticSlots)
}

// newBS builds a beaconed base station with the given cycle policy and
// admission cap.
func newBS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder, dynamic bool, maxSlots int) *BS {
	if !dynamic && cfg.StaticCycle <= 0 {
		panic("mac: static base station needs a cycle length")
	}
	bs := &BS{bsCore: newBSCore(k, cfg, sched, r, ledger, tracer, slotWords, maxSlots), dynamic: dynamic}
	bs.bind()
	bs.ackFlown = bs.listen
	bs.beaconPrep = bs.prepareBeacon
	bs.beaconBuild = bs.buildBeacon
	bs.beaconInFIFO = bs.onBeaconLoaded
	bs.beaconDueStep = bs.onBeaconDue
	bs.beaconFlown = bs.onBeaconFlown
	r.SetReceiveHandler(bs.onFrame)
	return bs
}

// CycleLength reports the current TDMA cycle.
func (bs *BS) CycleLength() sim.Time { return bs.currentCycle() }

// AuditTable implements BSMAC: beyond the membership bijection, every
// slot names a node that points back at it, a dynamic table with no
// compaction pending is dense (the cycle only covers indices 0..n-1),
// and every advertised static grant matches the table. A violation means
// a join, release or reclaim path granted the same slot twice or left
// the maps out of step.
func (bs *BS) AuditTable() []string {
	v := bs.bsCore.AuditTable()
	for _, s := range bs.indices() {
		id := bs.slotNode[s]
		if back, ok := bs.nodeSlot[id]; !ok || back != s {
			v = append(v, fmt.Sprintf("slot %d names node %d but the node map points at slot %d",
				s, id, back))
		}
		if bs.dynamic && !bs.needCompact && s >= len(bs.slotNode) {
			v = append(v, fmt.Sprintf("dynamic slot %d outside the dense range 0..%d",
				s, len(bs.slotNode)-1))
		}
	}
	for _, g := range bs.grants {
		if int(g.entry.Slot) >= bs.maxSlots {
			v = append(v, fmt.Sprintf("grant advertises out-of-range slot %d for node %d",
				g.entry.Slot, g.entry.NodeID))
		}
		if slot, ok := bs.nodeSlot[g.entry.NodeID]; !ok || slot != int(g.entry.Slot) {
			v = append(v, fmt.Sprintf("grant advertises slot %d for node %d but the table says %d",
				g.entry.Slot, g.entry.NodeID, slot))
		}
	}
	return v
}

// Start begins the beacon cycle. The first beacon flies one cycle after
// Start so nodes powered on at t=0 are already listening.
func (bs *BS) Start() {
	bs.markStarted()
	bs.cycle = bs.currentCycle()
	bs.listen()
	bs.scheduleBeacon(bs.k.Now() + bs.cycle)
}

// currentCycle derives the cycle from the variant and the join state.
func (bs *BS) currentCycle() sim.Time {
	if !bs.dynamic {
		return bs.cfg.StaticCycle
	}
	// Dynamic: SB+ES region plus one slot per joined node.
	return bs.cfg.Profile.MAC.DynamicSlotDuration * sim.Time(len(bs.nodeSlot)+1)
}

// slotDuration mirrors the node-side computation.
func (bs *BS) slotDuration() sim.Time {
	if bs.dynamic {
		return bs.cfg.Profile.MAC.DynamicSlotDuration
	}
	return bs.cycle / sim.Time(bs.cfg.Profile.MAC.MaxStaticSlots+1)
}

// scheduleBeacon arms the beacon whose burst must start at fireAt.
func (bs *BS) scheduleBeacon(fireAt sim.Time) {
	p := &bs.cfg.Profile
	// Preparation lead: build task + FIFO load + margin.
	lead := p.MCU.CyclesToTime(p.Cost.BSBeaconBuild) +
		p.Radio.TxClockIn(p.Radio.AddressBytes+bs.maxBeaconBytes()) +
		150*sim.Microsecond
	bs.k.ScheduleArg(fireAt-lead-p.Radio.TxSettle, bs.beaconPrep, uint64(fireAt))
}

// maxBeaconBytes bounds the beacon payload for lead-time sizing.
func (bs *BS) maxBeaconBytes() int {
	return packet.BeaconBaseBytes + packet.SlotEntryBytes*bs.maxSlots
}

// prepareBeacon opens the SB region for the beacon whose burst must
// start at the instant in arg, and runs the beacon-build task.
func (bs *BS) prepareBeacon(_ *sim.Kernel, fireAt uint64) {
	bs.beaconFireAt = sim.Time(fireAt)
	bs.inBeaconPrep = true
	bs.radio.Standby() // stop listening; the SB slot begins
	bs.sched.Interrupt("bs-beacon-build", bs.cfg.Profile.Cost.BSBeaconBuild, bs.beaconBuild)
}

// buildBeacon is the beacon-build task: it settles the table, then
// loads the beacon and arms its fire instant.
func (bs *BS) buildBeacon() {
	p := &bs.cfg.Profile
	if bs.reclaimSilent() {
		bs.pruneGrants()
		if bs.dynamic {
			bs.compactSlots()
		}
	}
	if bs.needCompact {
		bs.compactSlots()
		bs.needCompact = false
	}
	bs.cycle = bs.currentCycle() // dynamic growth/shrink takes effect here
	bs.seq++
	b := packet.Beacon{
		Seq:         bs.seq,
		CycleMicros: uint32(bs.cycle / sim.Microsecond),
		Entries:     bs.beaconEntries(),
	}
	// The burst should start at fireAt, but under MCU congestion
	// (a slot-assign task from a late SSR, say) the FIFO load can
	// slip past the nominal instant; the beacon then flies as soon
	// as the load completes, and the nodes' guard margins absorb
	// the small delay.
	bs.beaconLoaded, bs.beaconDue = false, false
	bs.beaconAir = p.Radio.Airtime(b.EncodedBytes())
	bs.beaconBuf = b.AppendMarshal(bs.beaconBuf[:0])
	bs.radio.Load(bs.cfg.Plan.Beacon, bs.beaconBuf, bs.beaconInFIFO)
	fireEvent := bs.beaconFireAt - p.Radio.TxSettle
	if fireEvent < bs.k.Now() {
		fireEvent = bs.k.Now() // congestion ate the lead; fly late
	}
	bs.k.ScheduleArg(fireEvent, bs.beaconDueStep, 0)
}

func (bs *BS) onBeaconLoaded() {
	bs.beaconLoaded = true
	if bs.beaconDue {
		bs.radio.Fire(bs.beaconFlown)
	}
}

func (bs *BS) onBeaconDue(*sim.Kernel, uint64) {
	bs.beaconDue = true
	if bs.beaconLoaded {
		bs.radio.Fire(bs.beaconFlown)
	}
}

// onBeaconFlown closes the SB region and arms the next beacon from this
// one's air start.
func (bs *BS) onBeaconFlown() {
	bs.inBeaconPrep = false
	bs.stats.BeaconsSent++
	bs.tracer.Recordf(bs.k.Now(), "bs", metrics.KindBeaconTx,
		"seq=%d cycle=%v nodes=%d", bs.seq, bs.cycle, len(bs.nodeSlot))
	bs.listen()
	// The burst just ended; its air start is the reference.
	bs.t0 = bs.k.Now() - bs.beaconAir
	bs.scheduleBeacon(bs.t0 + bs.cycle)
}

// pruneGrants drops pending grant advertisements for nodes that left
// the table (reclaimed or released). Silence reclaim runs in the
// beacon-build task, before the cycle length is recomputed, so a dynamic
// cycle shrinks on the very beacon that drops the node; there the
// surviving slots are renumbered densely (the cycle only covers indices
// 0..n-1 and every beacon carries the full table, so survivors pick up
// their new index from the next beacon), while a static index simply
// returns to the grant pool.
func (bs *BS) pruneGrants() {
	live := bs.grants[:0]
	for _, g := range bs.grants {
		if _, member := bs.nodeSlot[g.entry.NodeID]; member {
			live = append(live, g)
		}
	}
	bs.grants = live
}

// compactSlots renumbers the surviving dynamic slots densely, preserving
// their order. Without this a survivor's slot index could exceed the
// shrunk cycle and its transmissions would land outside the frame.
func (bs *BS) compactSlots() {
	slots := bs.indices()
	nodeSlot := make(map[uint8]int, len(slots))
	slotNode := make(map[int]uint8, len(slots))
	for i, s := range slots {
		id := bs.slotNode[s]
		nodeSlot[id] = i
		slotNode[i] = id
	}
	bs.nodeSlot = nodeSlot
	bs.slotNode = slotNode
}

// beaconEntries assembles the advertisement list: the full slot table for
// dynamic TDMA, the active grants for static TDMA.
func (bs *BS) beaconEntries() []packet.SlotEntry {
	entries := bs.entryBuf[:0]
	if bs.dynamic {
		for slot, node := range bs.slotNode {
			entries = append(entries, packet.SlotEntry{NodeID: node, Slot: uint8(slot)})
		}
		slices.SortFunc(entries, func(a, b packet.SlotEntry) int { return int(a.Slot) - int(b.Slot) })
		bs.entryBuf = entries
		return entries
	}
	live := bs.grants[:0]
	for _, g := range bs.grants {
		entries = append(entries, g.entry)
		if g.left--; g.left > 0 {
			live = append(live, g)
		}
	}
	bs.grants = live
	bs.entryBuf = entries
	return entries
}

// onFrame dispatches node frames.
func (bs *BS) onFrame(f packet.Frame) {
	switch f.Dest {
	case bs.cfg.Plan.BSCtrl:
		if ssr, err := packet.UnmarshalSSR(f.Payload); err == nil {
			bs.handleSSR(ssr)
		} else if rel, err := packet.UnmarshalRelease(f.Payload); err == nil {
			bs.handleRelease(rel)
		}
	case bs.cfg.Plan.BSData:
		bs.handleData(f.Payload)
	}
}

// handleRelease frees a voluntarily released slot immediately — the
// low-battery node is parking in beacon-only mode and will not return —
// so the dynamic cycle compacts on the next beacon instead of after the
// silence-reclaim window.
func (bs *BS) handleRelease(rel packet.Release) {
	bs.sched.PostFn("bs-slot-release", bs.cfg.Profile.Cost.BSSlotAssign, func() {
		slot, exists := bs.release(rel.NodeID)
		if !exists {
			return // duplicate or stale release
		}
		bs.stats.SlotsReleased++
		bs.tracer.Recordf(bs.k.Now(), "bs", metrics.KindSlotRelease,
			"node=%d slot=%d", rel.NodeID, slot)
		bs.pruneGrants()
		// Compaction is deferred to the next beacon build: renumbering
		// now would misattribute frames from survivors that still
		// transmit in their old slot indices for the rest of this cycle.
		if bs.dynamic {
			bs.needCompact = true
		}
	})
}

// handleSSR assigns a slot (or repeats an existing assignment for a
// retrying node) and advertises it in upcoming beacons.
func (bs *BS) handleSSR(ssr packet.SSR) {
	bs.stats.SSRReceived++
	bs.sched.PostFn("bs-slot-assign", bs.cfg.Profile.Cost.BSSlotAssign, func() {
		slot, added, ok := bs.admit(ssr.NodeID)
		if !ok {
			return
		}
		if added && bs.dynamic {
			bs.tracer.Recordf(bs.k.Now(), "bs", metrics.KindCycleGrow,
				"nodes=%d next-cycle=%v", len(bs.nodeSlot), bs.currentCycle())
		}
		bs.tracer.Recordf(bs.k.Now(), "bs", metrics.KindSlotGrant,
			"node=%d slot=%d", ssr.NodeID, slot)
		if !bs.dynamic {
			bs.grants = append(bs.grants, grant{
				entry: packet.SlotEntry{NodeID: ssr.NodeID, Slot: uint8(slot)},
				left:  grantRepeat,
			})
		}
	})
}

// handleData identifies the sender — from the slot timing under TDMA,
// from the sender-ID header under contention access — acknowledges the
// frame and hands it to the data sink.
func (bs *BS) handleData(payload []byte) {
	p := &bs.cfg.Profile
	var node uint8
	if bs.idHeader {
		id, ok := bs.headerSender(payload)
		if !ok {
			return
		}
		node = id
		payload = payload[packet.DataHeaderBytes:]
	} else {
		airStart := bs.radio.LastRxFrameEnd() - p.Radio.Airtime(len(payload))
		slot := int((airStart-bs.t0)/bs.slotDuration()) - 1
		var known bool
		if node, known = bs.slotNode[slot]; !known {
			bs.stats.StrayFrames++
			return
		}
	}
	rec := bs.accept(node, payload)
	// Fast-path acknowledgement, except during beacon preparation: the
	// radio then belongs to the beacon path and the ack is suppressed — a
	// desynchronised sender transmitting into the SB region simply
	// retries.
	if !bs.inBeaconPrep {
		bs.ackData(node, rec)
	}
}
