package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// crcVectors are CRC-16/CCITT-FALSE reference vectors (poly 0x1021,
// init 0xFFFF).
var crcVectors = []struct {
	in   string
	want uint16
}{
	{"", 0xFFFF},
	{"123456789", 0x29B1},
	{"A", 0xB915},
}

func TestCRC16KnownVectors(t *testing.T) {
	for _, c := range crcVectors {
		if got := CRC16([]byte(c.in)); got != c.want {
			t.Errorf("CRC16(%q) = 0x%04X, want 0x%04X", c.in, got, c.want)
		}
	}
}

// crc16Bitwise is the bit-serial CRC-16-CCITT register, one polynomial
// step per input bit: the reference the table-driven CRC16 must equal.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRC16MatchesBitwiseReference checks the table-driven CRC against
// the bit-serial register on the known vectors and on 10k random inputs
// of 0 to 64 bytes.
func TestCRC16MatchesBitwiseReference(t *testing.T) {
	for _, c := range crcVectors {
		if got := crc16Bitwise([]byte(c.in)); got != c.want {
			t.Fatalf("reference CRC(%q) = 0x%04X, want 0x%04X", c.in, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64)
	for i := 0; i < 10000; i++ {
		data := buf[:rng.Intn(len(buf)+1)]
		rng.Read(data)
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("CRC16(%x) = 0x%04X, bitwise reference 0x%04X", data, got, want)
		}
	}
}

func TestCRC16DetectsSingleBitFlips(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56, 0x78, 0x9A}
	orig := CRC16(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << uint(bit)
			if CRC16(mut) == orig {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", i, bit)
			}
		}
	}
}

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	f := Frame{Dest: AddrBSData, Payload: []byte{1, 2, 3, 4, 5}}
	img := f.Encode()
	if len(img) != AddressBytes+5+2 {
		t.Fatalf("image length = %d, want %d", len(img), AddressBytes+7)
	}
	got, ok, err := Decode(img)
	if err != nil || !ok {
		t.Fatalf("Decode: ok=%v err=%v", ok, err)
	}
	if got.Dest != f.Dest || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestDecodeCorruptedFrameFailsCRC(t *testing.T) {
	f := Frame{Dest: AddrBeacon, Payload: []byte{9, 8, 7}}
	img := f.Encode()
	img[4] ^= 0x40 // flip a payload bit in flight
	_, ok, err := Decode(img)
	if err != nil {
		t.Fatalf("Decode error: %v", err)
	}
	if ok {
		t.Fatalf("corrupted frame passed CRC")
	}
}

func TestDecodeAddressCorruptionFailsCRC(t *testing.T) {
	f := Frame{Dest: NodeAddress(3), Payload: []byte{1}}
	img := f.Encode()
	img[0] ^= 0x01
	_, ok, _ := Decode(img)
	if ok {
		t.Fatalf("address corruption passed CRC")
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3, 4}); err == nil {
		t.Fatalf("want ErrFrameTooShort")
	}
}

func TestDecodeEmptyPayloadFrame(t *testing.T) {
	f := Frame{Dest: NodeAddress(1)}
	got, ok, err := Decode(f.Encode())
	if err != nil || !ok {
		t.Fatalf("empty-payload frame: ok=%v err=%v", ok, err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", got.Payload)
	}
}

// Property: Decode(Encode(f)) is the identity with a passing CRC, for all
// destinations and payloads.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(dest uint32, payload []byte) bool {
		fr := Frame{Dest: Address(dest & 0xFFFFFF), Payload: payload}
		got, ok, err := Decode(fr.Encode())
		return err == nil && ok && got.Dest == fr.Dest && bytes.Equal(got.Payload, fr.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit corruption of the on-air image is caught by
// the CRC.
func TestQuickSingleBitCorruptionCaught(t *testing.T) {
	f := func(dest uint32, payload []byte, pos uint16) bool {
		fr := Frame{Dest: Address(dest & 0xFFFFFF), Payload: payload}
		img := fr.Encode()
		i := int(pos) % (len(img) * 8)
		img[i/8] ^= 1 << uint(i%8)
		_, ok, err := Decode(img)
		return err == nil && !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAddressUnique(t *testing.T) {
	seen := map[Address]bool{AddrBeacon: true, AddrBSData: true, AddrBSControl: true}
	for id := 0; id < 256; id++ {
		a := NodeAddress(uint8(id))
		if seen[a] {
			t.Fatalf("address collision for node %d", id)
		}
		seen[a] = true
	}
}

func TestBeaconMarshalSizes(t *testing.T) {
	b := Beacon{Seq: 7, CycleMicros: 30000}
	if got := len(b.Marshal()); got != BeaconBaseBytes {
		t.Fatalf("empty beacon = %d bytes, want %d", got, BeaconBaseBytes)
	}
	b.Entries = []SlotEntry{{1, 0}, {2, 1}, {3, 2}}
	if got := len(b.Marshal()); got != BeaconBaseBytes+3*SlotEntryBytes {
		t.Fatalf("3-entry beacon = %d bytes, want %d", got, BeaconBaseBytes+6)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	in := Beacon{
		Seq:         1234,
		CycleMicros: 60000,
		Entries:     []SlotEntry{{NodeID: 5, Slot: 2}, {NodeID: 9, Slot: 4}},
	}
	var out Beacon
	if err := out.Unmarshal(in.Marshal()); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.CycleMicros != in.CycleMicros || len(out.Entries) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Entries {
		if out.Entries[i] != in.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, out.Entries[i], in.Entries[i])
		}
	}
}

func TestUnmarshalBeaconErrors(t *testing.T) {
	kept := Beacon{Seq: 5, CycleMicros: 30000, Entries: []SlotEntry{{1, 0}}}
	b := kept
	if err := b.Unmarshal([]byte{1, 2}); !errors.Is(err, ErrBeaconTruncated) {
		t.Fatalf("short payload: err = %v", err)
	}
	wrongKind := kept.Marshal()
	wrongKind[0] = byte(KindSSR)
	if err := b.Unmarshal(wrongKind); !errors.Is(err, ErrNotBeacon) {
		t.Fatalf("SSR kind as beacon: err = %v", err)
	}
	// Declared entry count exceeding the payload length.
	p := Beacon{Seq: 1, CycleMicros: 1}.Marshal()
	p[7] = 9
	if err := b.Unmarshal(p); !errors.Is(err, ErrBeaconTruncated) {
		t.Fatalf("truncated entry table: err = %v", err)
	}
	if b.Seq != kept.Seq || b.CycleMicros != kept.CycleMicros || len(b.Entries) != 1 || b.Entries[0] != kept.Entries[0] {
		t.Fatalf("failed decodes changed the beacon: %+v", b)
	}
}

// TestUnmarshalBeaconReusesEntries: a decode into a beacon holding a
// longer table truncates it and writes into the same backing array.
func TestUnmarshalBeaconReusesEntries(t *testing.T) {
	b := Beacon{Entries: make([]SlotEntry, 5, 8)}
	backing := &b.Entries[:1][0]
	in := Beacon{Seq: 2, CycleMicros: 60000, Entries: []SlotEntry{{4, 1}, {6, 3}}}
	if err := b.Unmarshal(in.Marshal()); err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 2 || b.Entries[0] != in.Entries[0] || b.Entries[1] != in.Entries[1] {
		t.Fatalf("entries = %+v, want %+v", b.Entries, in.Entries)
	}
	if &b.Entries[0] != backing {
		t.Fatal("Unmarshal did not reuse the entries' backing array")
	}
	if err := b.Unmarshal(Beacon{Seq: 3, CycleMicros: 30000}.Marshal()); err != nil || len(b.Entries) != 0 {
		t.Fatalf("entry-free beacon left %d entries (err %v)", len(b.Entries), err)
	}
}

// Property: beacon marshalling round-trips for any entry table that fits
// a frame.
func TestQuickBeaconRoundTrip(t *testing.T) {
	f := func(seq uint16, cyc uint32, raw []uint16) bool {
		if len(raw) > 9 {
			raw = raw[:9]
		}
		in := Beacon{Seq: seq, CycleMicros: cyc}
		for _, r := range raw {
			in.Entries = append(in.Entries, SlotEntry{NodeID: uint8(r >> 8), Slot: uint8(r)})
		}
		var out Beacon
		err := out.Unmarshal(in.Marshal())
		if err != nil || out.Seq != in.Seq || out.CycleMicros != in.CycleMicros ||
			len(out.Entries) != len(in.Entries) {
			return false
		}
		for i := range in.Entries {
			if out.Entries[i] != in.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSSRRoundTrip(t *testing.T) {
	in := SSR{NodeID: 3, Nonce: 0xBEEF}
	p := in.Marshal()
	if len(p) != SSRBytes {
		t.Fatalf("SSR = %d bytes, want %d", len(p), SSRBytes)
	}
	out, err := UnmarshalSSR(p)
	if err != nil || out != in {
		t.Fatalf("round trip: %+v err=%v", out, err)
	}
	if _, err := UnmarshalSSR([]byte{1}); err == nil {
		t.Fatalf("short SSR accepted")
	}
	if _, err := UnmarshalSSR(Ack{}.Marshal()); err == nil {
		t.Fatalf("ack accepted as SSR")
	}
}

func TestAck(t *testing.T) {
	p := Ack{}.Marshal()
	if len(p) != AckBytes {
		t.Fatalf("ack = %d bytes, want %d", len(p), AckBytes)
	}
	if !IsAck(p) {
		t.Fatalf("IsAck(own marshal) = false")
	}
	if IsAck([]byte{0x00}) || IsAck(nil) || IsAck([]byte{byte(KindAck), 0}) {
		t.Fatalf("IsAck accepted a non-ack")
	}
}

func TestBeatRoundTrip(t *testing.T) {
	in := Beat{Channel: 1, Lag: 74, Seq: 9}
	p := in.Marshal()
	if len(p) != BeatBytes {
		t.Fatalf("beat = %d bytes, want %d", len(p), BeatBytes)
	}
	out, err := UnmarshalBeat(p)
	if err != nil || out != in {
		t.Fatalf("round trip: %+v err=%v", out, err)
	}
	if _, err := UnmarshalBeat(p[:3]); err == nil {
		t.Fatalf("short beat accepted")
	}
}

func TestHRVRoundTrip(t *testing.T) {
	in := HRV{MeanRRMs: 800, RMSSDMs: 42, MinRRMs: 760, MaxRRMs: 850, Beats: 16, Seq: 3}
	p := in.Marshal()
	if len(p) != HRVBytes {
		t.Fatalf("hrv = %d bytes, want %d", len(p), HRVBytes)
	}
	out, err := UnmarshalHRV(p)
	if err != nil || out != in {
		t.Fatalf("round trip: %+v err=%v", out, err)
	}
	if _, err := UnmarshalHRV(p[:5]); err == nil {
		t.Fatalf("short HRV accepted")
	}
	if _, err := UnmarshalHRV(Beat{}.Marshal()); err == nil {
		t.Fatalf("beat accepted as HRV")
	}
}

// Property: HRV summaries round-trip for all field values.
func TestQuickHRVRoundTrip(t *testing.T) {
	f := func(mean, rmssd, lo, hi uint16, beats, seq uint8) bool {
		in := HRV{MeanRRMs: mean, RMSSDMs: rmssd, MinRRMs: lo, MaxRRMs: hi, Beats: beats, Seq: seq}
		out, err := UnmarshalHRV(in.Marshal())
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SSR and Beat round-trip for all field values.
func TestQuickControlRoundTrips(t *testing.T) {
	f := func(id uint8, nonce uint16, ch uint8, lag uint16, seq uint8) bool {
		s, err := UnmarshalSSR(SSR{NodeID: id, Nonce: nonce}.Marshal())
		if err != nil || s.NodeID != id || s.Nonce != nonce {
			return false
		}
		b, err := UnmarshalBeat(Beat{Channel: ch, Lag: lag, Seq: seq}.Marshal())
		return err == nil && b.Channel == ch && b.Lag == lag && b.Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
