package mac

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestAuditFrameStatsLaws exercises the pure frame-conservation checker
// over hand-built counter snapshots: balanced books (including the
// epoch-straddle carry and a pending ack) audit clean, and each cooked
// imbalance is named.
func TestAuditFrameStatsLaws(t *testing.T) {
	balanced := Stats{DataSent: 10, DataAcked: 7, AckMissed: 3, Retries: 2, DataDropped: 1}
	if v := AuditFrameStats(balanced, 0, false); len(v) != 0 {
		t.Fatalf("balanced books flagged: %v", v)
	}
	// A frame sent before the accounting reset, acked after it: the ack
	// shows in this epoch, the send in the previous one — carry covers it.
	straddle := Stats{DataAcked: 1}
	if v := AuditFrameStats(straddle, 1, false); len(v) != 0 {
		t.Fatalf("epoch-straddle ack flagged: %v", v)
	}
	if v := AuditFrameStats(straddle, 0, false); len(v) != 1 {
		t.Fatalf("uncarried straddle not flagged: %v", v)
	}
	// One frame in the air awaiting its ack.
	pending := Stats{DataSent: 1}
	if v := AuditFrameStats(pending, 0, true); len(v) != 0 {
		t.Fatalf("pending ack flagged: %v", v)
	}
	// A missed ack that became neither retry nor drop breaks the first law.
	leak := Stats{DataSent: 2, DataAcked: 1, AckMissed: 1}
	v := AuditFrameStats(leak, 0, false)
	if len(v) != 1 || !strings.Contains(v[0], "AckMissed") {
		t.Fatalf("retry-ledger leak not flagged: %v", v)
	}
	// A lost transmission breaks the second law.
	lost := Stats{DataSent: 3, DataAcked: 1, AckMissed: 1, Retries: 1}
	v = AuditFrameStats(lost, 0, false)
	if len(v) != 1 || !strings.Contains(v[0], "DataSent") {
		t.Fatalf("lost transmission not flagged: %v", v)
	}
}

// TestAuditSlotTrip joins a node, checks its grant-window audit is
// clean, then cooks the slot index past the cycle — the deliberate
// violation the audit must catch.
func TestAuditSlotTrip(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 21)
	n1 := r.addNode(1, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	r.k.RunUntil(2 * sim.Second)
	if !n1.Joined() {
		t.Fatal("node failed to join")
	}
	if v := n1.AuditProtocol(); len(v) != 0 {
		t.Fatalf("joined node's slot audit fired: %v", v)
	}
	if v := n1.AuditFrame(); len(v) != 0 {
		t.Fatalf("joined node's frame audit fired: %v", v)
	}

	saved := n1.slot
	n1.slot = 40 // far past any cycle the node has heard
	v := n1.AuditProtocol()
	if len(v) == 0 {
		t.Fatal("out-of-cycle slot not detected")
	}
	if !strings.Contains(v[0], "past the") {
		t.Fatalf("slot-overrun detail missing: %v", v)
	}
	n1.slot = saved
	if v := n1.AuditProtocol(); len(v) != 0 {
		t.Fatalf("restored slot still flagged: %v", v)
	}
}

// TestAuditSlotTableTrip joins two nodes, checks the base-station table
// audits clean, then corrupts it into a double grant and a map mismatch.
func TestAuditSlotTableTrip(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 22)
	n1 := r.addNode(1, ProtoDynamic)
	n2 := r.addNode(2, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	r.k.Schedule(300*sim.Millisecond, func(*sim.Kernel) { n2.Start() })
	r.k.RunUntil(3 * sim.Second)
	if !n1.Joined() || !n2.Joined() {
		t.Fatal("nodes failed to join")
	}
	if v := r.bs.AuditTable(); len(v) != 0 {
		t.Fatalf("consistent table flagged: %v", v)
	}

	// Double grant: both nodes pointed at the same slot index.
	saved := r.bs.nodeSlot[2]
	r.bs.nodeSlot[2] = r.bs.nodeSlot[1]
	v := r.bs.AuditTable()
	if len(v) == 0 {
		t.Fatal("double-granted slot not detected")
	}
	if !strings.Contains(strings.Join(v, "; "), "slot map names") &&
		!strings.Contains(strings.Join(v, "; "), "points at") {
		t.Fatalf("double-grant detail missing: %v", v)
	}
	r.bs.nodeSlot[2] = saved

	// Out-of-step maps: a slot entry with no node-map partner.
	r.bs.slotNode[7] = 9
	v = r.bs.AuditTable()
	if len(v) == 0 {
		t.Fatal("out-of-step maps not detected")
	}
	delete(r.bs.slotNode, 7)
	if v := r.bs.AuditTable(); len(v) != 0 {
		t.Fatalf("restored table still flagged: %v", v)
	}
}

// TestResetAccountingCarriesPendingAck checks the epoch-straddle credit:
// a reset taken while an ack window is open leaves the books balanced
// even though the send landed in the previous epoch.
func TestResetAccountingCarriesPendingAck(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 23)
	n1 := r.addNode(1, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(20 * sim.Millisecond)
	})
	// Poll at a fine grain and reset the accounting the moment an ack
	// window is open — the worst instant for the books — then check the
	// law holds at every later poll.
	sawCarry := false
	poll := sim.NewTimer(r.k, func(*sim.Kernel) {
		if !sawCarry && n1.ack.open && n1.Joined() {
			n1.ResetAccounting()
			if n1.carrySent != 1 {
				t.Fatal("reset inside an open ack window did not carry the send")
			}
			sawCarry = true
			return
		}
		if v := n1.AuditFrame(); len(v) != 0 {
			t.Fatalf("frame law broken at %v: %v", r.k.Now(), v)
		}
	})
	r.k.Schedule(sim.Second, func(*sim.Kernel) {
		poll.StartPeriodic(100 * sim.Microsecond)
	})
	r.k.RunUntil(4 * sim.Second)
	if !sawCarry {
		t.Fatal("no reset landed inside an open ack window; widen the sweep")
	}
	if v := n1.AuditFrame(); len(v) != 0 {
		t.Fatalf("frame law broken at end of run: %v", v)
	}
}

// TestContentionAuditTrips cooks each contention-MAC law into violation:
// the CSMA channel-access laws, the LPL preamble-sampling laws, and the
// membership-table bijection the LPL base station shares with TDMA.
// Every law must name its breach with the exact detail string.
func TestContentionAuditTrips(t *testing.T) {
	r := newProtoRig(t, ProtoCSMA, Params{}, 30*sim.Millisecond, 3)
	cs := r.addNode(1, ProtoCSMA, Params{}).(*CSMANode)
	if v := cs.AuditProtocol(); len(v) != 0 {
		t.Fatalf("fresh CSMA node flagged: %v", v)
	}
	cs.stats = Stats{CCAAttempts: 2, CCABusy: 3, CCAFails: 4}
	checkTrips(t, "csma", cs.AuditProtocol(), []string{
		"CCABusy 3 exceeds CCAAttempts 2",
		"CCAFails 4 exceeds CCABusy 3",
	})
	cs.stats = Stats{CCAAttempts: 3, CCABusy: 1, DataSent: 4}
	cs.attemptActive = true
	cs.be = cs.maxBE + 1
	cs.nb = cs.maxBackoffs + 1
	checkTrips(t, "csma", cs.AuditProtocol(), []string{
		"4 bursts exceed 2 clear assessments (+1 straddle credit)",
		"backoff exponent 6 outside [3,5]",
		"attempt alive after 5 busy verdicts (max 4)",
	})

	lr := newProtoRig(t, ProtoLPL, Params{}, 0, 3)
	ln := lr.addNode(1, ProtoLPL, Params{}).(*LPLNode)
	ln.stats = Stats{EarlyAcks: 5, StrobesSent: 1, DataSent: 30, StrobeFails: 100}
	ln.gap.open = true
	checkTrips(t, "lpl", ln.AuditProtocol(), []string{
		"EarlyAcks 5 exceed StrobesSent 1 (+1 straddle credit)",
		"30 payloads exceed 5 early acks × burst 4 (+1 straddle credit)",
		"StrobeFails 100 imply more than the 1 strobes sent",
		"strobe gap open with no active train",
	})

	bs := lr.bs.(*LPLBS)
	bs.nodeSlot[1] = 0
	bs.nodeSlot[2] = 99
	checkTrips(t, "lpl-bs", bs.AuditTable(), []string{
		"member maps out of step: 2 nodes, 0 indices",
		"member index 0 granted to node 1 but the index map names node 0",
		"node 2 holds out-of-range member index 99",
	})
}

// checkTrips asserts got names every wanted breach, in order.
func checkTrips(t *testing.T, who string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d violations, want %d: %q", who, len(got), len(want), got)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("%s: violation %d = %q, want it to mention %q", who, i, got[i], w)
		}
	}
}
