package msp

import (
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/packet"
	"repro/internal/platform"
)

// runCRC computes CRC-16 of data on the VM.
func runCRC(t *testing.T, data []byte) uint16 {
	t.Helper()
	vm := NewVM(Programs()["crc16"])
	vm.Mem[0] = int32(len(data))
	for i, b := range data {
		vm.Mem[1+i] = int32(b)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	return uint16(vm.Mem[512])
}

// TestVMCRCMatchesGo: the assembly CRC agrees with the Go implementation
// the radio model uses — the VM programs are real code, not mock-ups.
func TestVMCRCMatchesGo(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		[]byte("123456789"),
		{0xFF, 0xFF, 0xFF},
		{0x12, 0x34, 0x56, 0x78, 0x9A},
	}
	for _, data := range cases {
		if got, want := runCRC(t, data), packet.CRC16(data); got != want {
			t.Errorf("CRC(% x): vm 0x%04X, go 0x%04X", data, got, want)
		}
	}
}

// Property: VM and Go CRC agree on arbitrary short buffers.
func TestQuickVMCRC(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 64 {
			data = data[:64]
		}
		return runCRC(t, data) == packet.CRC16(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestVMPack12MatchesCodec: the assembly packer reproduces codec.Pack's
// byte stream for whole pairs.
func TestVMPack12MatchesCodec(t *testing.T) {
	samples := make([]codec.Sample, 12)
	for i := range samples {
		samples[i] = codec.Sample(i*397) & codec.MaxSample
	}
	want := codec.Pack(samples)

	vm := NewVM(Programs()["pack12"])
	vm.Mem[0] = int32(len(samples) / 2)
	for i, s := range samples {
		vm.Mem[1+i] = int32(s)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if byte(vm.Mem[256+i]) != want[i] {
			t.Fatalf("byte %d: vm 0x%02X, codec 0x%02X", i, byte(vm.Mem[256+i]), want[i])
		}
	}
}

// Property: packer equivalence over arbitrary sample pairs.
func TestQuickVMPack12(t *testing.T) {
	f := func(raw []uint16) bool {
		pairs := len(raw) / 2
		if pairs == 0 {
			return true
		}
		if pairs > 8 {
			pairs = 8
		}
		samples := make([]codec.Sample, 2*pairs)
		for i := range samples {
			samples[i] = codec.Sample(raw[i]) & codec.MaxSample
		}
		want := codec.Pack(samples)
		vm := NewVM(Programs()["pack12"])
		vm.Mem[0] = int32(pairs)
		for i, s := range samples {
			vm.Mem[1+i] = int32(s)
		}
		if _, err := vm.Run(); err != nil {
			return false
		}
		for i := range want {
			if byte(vm.Mem[256+i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// rpeakVM drives the per-sample detector program over a sample stream,
// preserving its memory state between calls, and collects beat lags.
type rpeakVM struct {
	vm    *VM
	state [8]int32
}

func newRpeakVM() *rpeakVM {
	r := &rpeakVM{vm: NewVM(Programs()["rpeak-step"])}
	r.state[3] = 614 << 8 // peakEMA bootstrap: 0.3 of the ADC half-scale, <<8
	r.state[7] = -1000    // lastBeat long ago
	return r
}

func (r *rpeakVM) push(t *testing.T, sample codec.Sample) int {
	t.Helper()
	r.vm.Reset()
	r.vm.Mem[0] = int32(sample) - 2048 // centre the ADC range
	for i := 1; i < 8; i++ {
		r.vm.Mem[i] = r.state[i]
	}
	if _, err := r.vm.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		r.state[i] = r.vm.Mem[i]
	}
	return int(r.vm.Mem[8])
}

// TestVMRpeakDetectsBeats: the assembly detector finds the beats of a
// synthetic 75 bpm ECG at a plausible rate — an executable cross-check
// of the Rpeak application's algorithm.
func TestVMRpeakDetectsBeats(t *testing.T) {
	g := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, Seed: 1})
	r := newRpeakVM()
	beats := 0
	var lags []int
	const fs = 200.0
	for i := int64(0); i < int64(30*fs); i++ { // 30 seconds
		lag := r.push(t, g.SampleAt(0, i, fs))
		if lag > 0 {
			beats++
			lags = append(lags, lag)
		}
	}
	// ~37 beats in 30 s at 75 bpm; allow generous slack for the
	// fixed-point implementation.
	if beats < 30 || beats > 45 {
		t.Fatalf("vm detector found %d beats in 30s, want ~37", beats)
	}
	for _, lag := range lags {
		if lag < 1 || lag > 120 {
			t.Fatalf("implausible lag %d", lag)
		}
	}
}

// TestVMRpeakCycleBudget relates the executable detector to the
// calibrated per-sample cost: the algorithm core is a modest fraction of
// the budget, the rest being acquisition, OS and driver overhead — which
// is why the paper models the µC at activity level rather than pricing
// the algorithm alone.
func TestVMRpeakCycleBudget(t *testing.T) {
	g := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, Seed: 1})
	r := newRpeakVM()
	var total int64
	const n = 2000
	for i := int64(0); i < n; i++ {
		r.push(t, g.SampleAt(0, i, 200))
		total += r.vm.Cycles()
	}
	perSample := total / n
	budget := platform.IMEC().Cost.RpeakPerChannelSample
	if perSample <= 0 || perSample >= budget {
		t.Fatalf("vm detector core = %d cycles/sample, budget %d — core should be a strict fraction",
			perSample, budget)
	}
	frac := float64(perSample) / float64(budget)
	if frac < 0.02 || frac > 0.6 {
		t.Fatalf("core/budget fraction %.2f implausible (core %d, budget %d)",
			frac, perSample, budget)
	}
}

// TestVMRRStats: the assembly HRV statistics agree with a direct
// computation.
func TestVMRRStats(t *testing.T) {
	rrs := []int32{800, 810, 790, 805, 795, 800, 820, 780}
	vm := NewVM(Programs()["rr-stats"])
	vm.Mem[0] = int32(len(rrs))
	for i, rr := range rrs {
		vm.Mem[1+i] = rr
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	var sum, minRR, maxRR, ssq int32
	minRR = 1 << 30
	var prev int32 = -1
	for _, rr := range rrs {
		sum += rr
		if rr < minRR {
			minRR = rr
		}
		if rr > maxRR {
			maxRR = rr
		}
		if prev >= 0 {
			d := rr - prev
			ssq += d * d
		}
		prev = rr
	}
	if vm.Mem[600] != sum/int32(len(rrs)) {
		t.Errorf("mean = %d, want %d", vm.Mem[600], sum/int32(len(rrs)))
	}
	if vm.Mem[601] != minRR || vm.Mem[602] != maxRR {
		t.Errorf("min/max = %d/%d, want %d/%d", vm.Mem[601], vm.Mem[602], minRR, maxRR)
	}
	if vm.Mem[603] != ssq {
		t.Errorf("ssq = %d, want %d", vm.Mem[603], ssq)
	}
}

// runBeaconParse feeds a marshalled beacon and node ID to the VM parser.
func runBeaconParse(t *testing.T, payload []byte, myID uint8) (cycle int32, slot int32, ok bool, cycles int64) {
	t.Helper()
	vm := NewVM(Programs()["beacon-parse"])
	for i, b := range payload {
		vm.Mem[i] = int32(b)
	}
	vm.Mem[100] = int32(myID)
	c, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}
	return vm.Mem[200], vm.Mem[201], vm.Mem[202] == 1, c
}

// TestVMBeaconParseMatchesCodec: the assembly parser extracts the same
// fields as packet.Beacon.Unmarshal.
func TestVMBeaconParseMatchesCodec(t *testing.T) {
	b := packet.Beacon{
		Seq:         77,
		CycleMicros: 60000,
		Entries: []packet.SlotEntry{
			{NodeID: 2, Slot: 1}, {NodeID: 5, Slot: 4}, {NodeID: 9, Slot: 0},
		},
	}
	payload := b.Marshal()

	cycle, slot, ok, _ := runBeaconParse(t, payload, 5)
	if !ok || uint32(cycle) != b.CycleMicros || slot != 4 {
		t.Fatalf("parse: cycle=%d slot=%d ok=%v", cycle, slot, ok)
	}
	// A node not in the table gets -1.
	_, slot, ok, _ = runBeaconParse(t, payload, 7)
	if !ok || slot != -1 {
		t.Fatalf("absent node: slot=%d ok=%v", slot, ok)
	}
	// A non-beacon kind is rejected, like Beacon.Unmarshal.
	bad := append([]byte(nil), payload...)
	bad[0] = 0x52
	if _, _, ok, _ = runBeaconParse(t, bad, 5); ok {
		t.Fatalf("wrong kind accepted")
	}
}

// TestVMBeaconParseCycleBudget: the raw parse is a small fraction of the
// calibrated per-cycle MCU budget — the budget is dominated by timer and
// scheduling overhead, not field extraction, which is why the activity
// model calibrates the whole beacon-handling path as one unit.
func TestVMBeaconParseCycleBudget(t *testing.T) {
	b := packet.Beacon{Seq: 1, CycleMicros: 60000,
		Entries: []packet.SlotEntry{{NodeID: 1, Slot: 0}, {NodeID: 2, Slot: 1}, {NodeID: 3, Slot: 2}, {NodeID: 4, Slot: 3}, {NodeID: 5, Slot: 4}}}
	_, _, ok, cycles := runBeaconParse(t, b.Marshal(), 5)
	if !ok {
		t.Fatalf("parse failed")
	}
	budget := platform.IMEC().Cost.BeaconParseDynamic
	if cycles <= 0 || cycles > budget/10 {
		t.Fatalf("parse core = %d cycles, budget %d — core should be a small fraction",
			cycles, budget)
	}
}

// TestCRCCycleCostJustifiesShockBurst: checking a 24-byte frame's CRC in
// software costs thousands of cycles — energy the nRF2401's hardware
// check (and address filter) saves the microcontroller on every frame,
// quantifying §4.2's overhearing argument from the compute side.
func TestCRCCycleCostJustifiesShockBurst(t *testing.T) {
	frame := make([]byte, 24)
	for i := range frame {
		frame[i] = byte(i * 37)
	}
	vm := NewVM(Programs()["crc16"])
	vm.Mem[0] = int32(len(frame))
	for i, b := range frame {
		vm.Mem[1+i] = int32(b)
	}
	cycles, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}
	// ~40+ cycles per byte of software CRC.
	if cycles < 24*30 {
		t.Fatalf("software CRC suspiciously cheap: %d cycles", cycles)
	}
	// At 8 MHz and 2 mA, a software CRC per received frame at the
	// streaming rate (33 frames/s incl. overheard traffic) would cost
	// measurable µC duty — the VM makes that number concrete.
	perFrameUS := float64(cycles) / 8.0 // cycles at 8 MHz -> µs
	if perFrameUS < 100 {
		t.Fatalf("per-frame CRC %v µs implausibly low", perFrameUS)
	}
}
