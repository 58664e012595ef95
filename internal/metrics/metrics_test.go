package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecorderCountsSurviveRingLimit(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 10; i++ {
		r.Record(sim.Time(i)*sim.Millisecond, "node1", KindDataTx, "")
	}
	if got := len(r.Events()); got != 3 {
		t.Fatalf("retained %d events, want the 3-event limit", got)
	}
	if got := r.Dropped(); got != 7 {
		t.Fatalf("Dropped = %d, want 7", got)
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	// The counter keeps exact counts past the ring limit — that is the
	// whole point of keeping counters separate from the event log.
	if got := r.Count(KindDataTx); got != 10 {
		t.Fatalf("Count = %d, want exact 10 despite the ring limit", got)
	}
	if got := r.CountBy("node1", KindDataTx); got != 10 {
		t.Fatalf("CountBy = %d, want 10", got)
	}
	// The kept events are the oldest: the join sequence end of the run.
	if r.Events()[0].At != 0 || r.Events()[2].At != 2*sim.Millisecond {
		t.Fatalf("ring kept the wrong events: %v", r.Events())
	}
}

func TestRecorderLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(sim.Time(i), "n", KindDataTx, "")
	}
	if got := len(r.Events()); got != 2 {
		t.Fatalf("limited recorder kept %d events, want 2", got)
	}
	// The drop is counted and surfaced, never silent: Count stays exact
	// and Render appends a trailer naming the loss.
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	if got := r.Count(KindDataTx); got != 5 {
		t.Fatalf("Count = %d, want the exact 5 despite the limit", got)
	}
	if out := r.Render(); !strings.Contains(out, "3 further event(s) dropped") {
		t.Fatalf("Render hides the drop:\n%s", out)
	}
}

// TestRecordfPastLimitFormatsNothing pins that a full recorder skips
// the formatting entirely while keeping Record's exact bookkeeping: the
// counter and the drop count move identically for both entry points.
func TestRecordfPastLimitFormatsNothing(t *testing.T) {
	viaRecordf, viaRecord := NewRecorder(2), NewRecorder(2)
	for i := 0; i < 2; i++ {
		viaRecordf.Recordf(sim.Time(i), "n", KindDataTx, "len=%d", 18)
		viaRecord.Record(sim.Time(i), "n", KindDataTx, "len=18")
	}
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, func() {
		viaRecordf.Recordf(5, "n", KindDataTx, "len=18")
	}); allocs != 0 {
		t.Fatalf("Recordf on a full recorder allocated %.1f times per call, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the measured runs.
	for i := 0; i < runs+1; i++ {
		viaRecord.Record(5, "n", KindDataTx, "len=18")
	}
	if got, want := viaRecordf.Dropped(), viaRecord.Dropped(); got != want || got != runs+1 {
		t.Fatalf("Dropped via Recordf = %d, via Record = %d, want %d", got, want, runs+1)
	}
	if got, want := viaRecordf.Count(KindDataTx), viaRecord.Count(KindDataTx); got != want || got != runs+3 {
		t.Fatalf("Count via Recordf = %d, via Record = %d, want %d", got, want, runs+3)
	}
	if got, want := viaRecordf.Recorded(), viaRecord.Recorded(); got != want {
		t.Fatalf("Recorded via Recordf = %d, via Record = %d", got, want)
	}
	if !reflect.DeepEqual(viaRecordf.Events(), viaRecord.Events()) {
		t.Fatalf("kept events differ:\n%v\n%v", viaRecordf.Events(), viaRecord.Events())
	}
}

func TestRecorderQueries(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, "bs", KindBeaconTx, "seq=0")
	r.Record(5*sim.Millisecond, "node1", KindBeaconRx, "seq=0")
	r.Recordf(6*sim.Millisecond, "node1", KindSSRTx, "nonce=%d", 42)
	r.Record(30*sim.Millisecond, "bs", KindBeaconTx, "seq=1")

	if got := len(r.Events()); got != 4 {
		t.Fatalf("events = %d, want 4", got)
	}
	if got := r.Count(KindBeaconTx); got != 2 {
		t.Fatalf("beacon-tx count = %d, want 2", got)
	}
	by := r.ByNode("node1")
	if len(by) != 2 || by[1].Detail != "nonce=42" {
		t.Fatalf("ByNode = %+v", by)
	}
	f := r.Filter(KindSSRTx)
	if len(f) != 1 || f[0].At != 6*sim.Millisecond {
		t.Fatalf("Filter = %+v", f)
	}
}

func TestRecorderRenderLines(t *testing.T) {
	r := NewRecorder(0)
	r.Record(30*sim.Millisecond, "bs", KindBeaconTx, "seq=1")
	r.Record(31*sim.Millisecond, "node2", KindBeaconRx, "")
	out := r.Render()
	if !strings.Contains(out, "beacon-tx") || !strings.Contains(out, "seq=1") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Fatalf("render lines = %d, want 2", lines)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 30 * sim.Millisecond, Node: "bs", Kind: KindBeaconTx}
	if !strings.Contains(e.String(), "30.000ms") {
		t.Fatalf("String() = %q", e.String())
	}
	e.Detail = "seq=3"
	if !strings.Contains(e.String(), "seq=3") {
		t.Fatalf("String() with detail = %q", e.String())
	}
}

func TestRecorderRenderReportsDrops(t *testing.T) {
	r := NewRecorder(1)
	r.Record(0, "bs", KindBeaconTx, "")
	r.Record(sim.Millisecond, "bs", KindBeaconTx, "")
	out := r.Render()
	if !strings.Contains(out, "1 further event(s) dropped at the 1-event limit") {
		t.Fatalf("Render hides the drop:\n%s", out)
	}
	full := NewRecorder(0)
	full.Record(0, "bs", KindBeaconTx, "")
	if strings.Contains(full.Render(), "dropped") {
		t.Fatalf("Render mentions drops on a complete timeline:\n%s", full.Render())
	}
}

func TestRecorderResetDerived(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, "node1", KindJoined, "")
	r.Observe("node1", HistSlotWait, 5*sim.Millisecond)
	r.ResetDerived()
	if got := r.Count(KindJoined); got != 0 {
		t.Fatalf("counter survived ResetDerived: %d", got)
	}
	if h := r.Histogram("node1", HistSlotWait); h != nil {
		t.Fatalf("histogram survived ResetDerived: %+v", h)
	}
	// The event log is the run's timeline and must survive.
	if got := len(r.Events()); got != 1 {
		t.Fatalf("event log lost %d events to ResetDerived", 1-got)
	}
	r.Record(0, "node1", KindDataTx, "")
	if got := r.Count(KindDataTx); got != 1 {
		t.Fatalf("recorder dead after ResetDerived: Count = %d", got)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(0, "n", KindDataTx, "")
	r.Recordf(0, "n", KindDataTx, "x%d", 1)
	r.Observe("n", HistSlotWait, sim.Millisecond)
	r.ResetDerived()
	if r.Count(KindDataTx) != 0 || r.Events() != nil || r.Render() != "" ||
		r.Dropped() != 0 || r.Recorded() != 0 || r.CounterRows() != nil ||
		r.HistRows() != nil || r.Histogram("n", HistSlotWait) != nil {
		t.Fatal("nil recorder leaked state")
	}
}

func TestNilRecorderQueries(t *testing.T) {
	var r *Recorder
	r.Record(0, "bs", KindBeaconTx, "")
	r.Recordf(0, "bs", KindBeaconTx, "x%d", 1)
	if r.Events() != nil || r.Filter(KindBeaconTx) != nil || r.ByNode("bs") != nil {
		t.Fatalf("nil recorder returned data")
	}
	if r.Count(KindBeaconTx) != 0 {
		t.Fatalf("nil recorder counted events")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	bounds := HistBounds()
	// Exactly on a boundary lands in that bucket (Counts[i] holds
	// samples <= bounds[i]).
	h.Observe(bounds[0])
	if h.Counts[0] != 1 {
		t.Fatalf("boundary sample missed bucket 0: %v", h.Counts)
	}
	// Just past it lands one bucket up.
	h.Observe(bounds[0] + 1)
	if h.Counts[1] != 1 {
		t.Fatalf("past-boundary sample missed bucket 1: %v", h.Counts)
	}
	// Beyond the ladder lands in the overflow slot.
	h.Observe(bounds[len(bounds)-1] + sim.Second)
	if h.Counts[len(bounds)] != 1 {
		t.Fatalf("overflow sample missed the last slot: %v", h.Counts)
	}
	// Negative clamps to zero instead of corrupting Min/Sum.
	h.Observe(-sim.Second)
	if h.Min != 0 || h.Sum < 0 {
		t.Fatalf("negative sample leaked: min=%v sum=%v", h.Min, h.Sum)
	}
	if h.N != 4 {
		t.Fatalf("N = %d, want 4", h.N)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(sim.Millisecond) // ladder bound: exactly 1 ms
	}
	h.Observe(3 * sim.Second)
	if got := h.Quantile(0.5); got != sim.Millisecond {
		t.Fatalf("p50 = %v, want 1ms", got)
	}
	// The 3 s outlier sits in the (2s, 5s] bucket; the conservative
	// estimate is the bucket's upper bound capped at the observed max.
	if got := h.Quantile(1.0); got != 3*sim.Second {
		t.Fatalf("p100 = %v, want the 3s max", got)
	}
	if got := h.Avg(); got != (99*sim.Millisecond+3*sim.Second)/100 {
		t.Fatalf("avg = %v", got)
	}
	empty := NewHistogram()
	if empty.Quantile(0.99) != 0 || empty.Avg() != 0 {
		t.Fatal("empty histogram quantile/avg not zero")
	}
}

func TestHistogramMergeMatchesCombinedStream(t *testing.T) {
	samples := []sim.Time{
		200 * sim.Microsecond, 3 * sim.Millisecond, 40 * sim.Millisecond,
		sim.Second, 7 * sim.Second, 90 * sim.Millisecond,
	}
	whole := NewHistogram()
	a, b := NewHistogram(), NewHistogram()
	for i, s := range samples {
		whole.Observe(s)
		if i%2 == 0 {
			a.Observe(s)
		} else {
			b.Observe(s)
		}
	}
	a.Merge(b)
	if !reflect.DeepEqual(a, whole) {
		t.Fatalf("merge diverged from the combined stream:\n got %+v\nwant %+v", a, whole)
	}
	a.Merge(nil) // must be a no-op
	if !reflect.DeepEqual(a, whole) {
		t.Fatal("nil merge changed the histogram")
	}
}

func TestSnapshotMergeOrderInvariant(t *testing.T) {
	mk := func(node string, v uint64, lat sim.Time) *Snapshot {
		r := NewRecorder(0)
		for i := uint64(0); i < v; i++ {
			r.Record(0, node, KindDataTx, "")
		}
		r.Observe(node, HistSlotWait, lat)
		return Assemble(r, nil, nil, []CounterRow{{Node: node, Name: "mac.data-sent", Value: v}}, v)
	}
	a := mk("node1", 3, 5*sim.Millisecond)
	b := mk("node2", 7, 40*sim.Millisecond)
	c := mk("node1", 2, 90*sim.Millisecond) // same keys as a: must sum
	ab := Merge([]*Snapshot{a, b, c, nil})
	ba := Merge([]*Snapshot{nil, c, b, a})
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge order changed the aggregate:\n%+v\nvs\n%+v", ab, ba)
	}
	if got := ab.Counter("node1", "event.data-tx"); got != 5 {
		t.Fatalf("merged counter = %d, want 3+2", got)
	}
	if got := ab.Counter("node1", "mac.data-sent"); got != 5 {
		t.Fatalf("merged extra counter = %d, want 5", got)
	}
	if ab.Points != 3 || ab.KernelEvents != 12 {
		t.Fatalf("points/kernel totals wrong: %d/%d", ab.Points, ab.KernelEvents)
	}
	for _, h := range ab.Hists {
		if h.Node == "node1" && h.Count != 2 {
			t.Fatalf("node1 merged histogram count = %d, want 2", h.Count)
		}
	}
}

func TestSnapshotCSVShape(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, "node1", KindDataTx, "")
	r.Observe("node1", HistTxToAck, 400*sim.Microsecond)
	s := Assemble(r, nil, nil, nil, 1)
	csv := s.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	want := strings.Count(csv, ",") / (len(lines)) // every line same arity
	for _, l := range lines {
		if strings.Count(l, ",") != want {
			t.Fatalf("ragged CSV row %q in:\n%s", l, csv)
		}
	}
	if !strings.HasPrefix(lines[0], "record,node,") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(csv, "counter,node1,,event.data-tx,,,1,") {
		t.Fatalf("counter row missing:\n%s", csv)
	}
	if !strings.Contains(csv, "hist,node1,,tx-to-ack,") {
		t.Fatalf("hist row missing:\n%s", csv)
	}
}

// TestSnapshotWriteFile: the artefact writer picks the format from the
// path suffix and writes exactly the CSV() / JSON() bytes.
func TestSnapshotWriteFile(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, "node1", KindDataTx, "")
	r.Observe("node1", HistTxToAck, 400*sim.Microsecond)
	s := Assemble(r, nil, nil, nil, 1)
	wantJSON, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		want []byte
	}{
		{"m.csv", []byte(s.CSV())},
		{"m.json", wantJSON},
		{"m", wantJSON},
	} {
		path := filepath.Join(dir, c.name)
		if err := s.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: wrote %q, want %q", c.name, got, c.want)
		}
	}
	if err := s.WriteFile(filepath.Join(dir, "missing", "m.csv")); err == nil {
		t.Fatalf("write into a missing directory succeeded")
	}
}
