package packet

import (
	"bytes"
	"testing"
)

// TestAppendEncodeMatchesEncode checks the scratch-buffer encoder is
// byte-identical to the allocating one, including when appending after
// existing content.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	f := Frame{Dest: AddrBSData, Payload: []byte{1, 2, 3, 4, 5}}
	want := f.Encode()
	if got := f.AppendEncode(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendEncode(nil) = %x, want %x", got, want)
	}
	prefixed := f.AppendEncode([]byte{0xAA})
	if prefixed[0] != 0xAA || !bytes.Equal(prefixed[1:], want) {
		t.Fatalf("AppendEncode with prefix = %x", prefixed)
	}
	if got := f.EncodedBytes(); got != len(want) {
		t.Fatalf("EncodedBytes = %d, want %d", got, len(want))
	}
}

// TestDecodeInPlaceMatchesDecode checks the aliasing decoder agrees
// with the copying one and really aliases the image.
func TestDecodeInPlaceMatchesDecode(t *testing.T) {
	image := Frame{Dest: AddrBeacon, Payload: []byte{9, 8, 7}}.Encode()
	want, wantOK, _ := Decode(image)
	got, ok, err := DecodeInPlace(image)
	if err != nil || ok != wantOK || got.Dest != want.Dest || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("DecodeInPlace = %+v/%v/%v, want %+v/%v", got, ok, err, want, wantOK)
	}
	// The payload must alias the image, not copy it.
	image[AddressBytes] = 0xFF
	if got.Payload[0] != 0xFF {
		t.Fatal("DecodeInPlace copied the payload")
	}
	if _, _, err := DecodeInPlace(image[:4]); err == nil {
		t.Fatal("short image accepted")
	}
}

// TestAppendMarshalMatchesMarshal checks every packet type's append
// variant against its allocating Marshal.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	b := Beacon{Seq: 7, CycleMicros: 30000, Entries: []SlotEntry{{1, 2}, {3, 4}}}
	if got := b.AppendMarshal(nil); !bytes.Equal(got, b.Marshal()) {
		t.Fatalf("beacon: %x != %x", got, b.Marshal())
	}
	if b.EncodedBytes() != len(b.Marshal()) {
		t.Fatalf("beacon EncodedBytes = %d, want %d", b.EncodedBytes(), len(b.Marshal()))
	}
	s := SSR{NodeID: 3, Nonce: 0xBEEF}
	if got := s.AppendMarshal(nil); !bytes.Equal(got, s.Marshal()) {
		t.Fatalf("ssr: %x != %x", got, s.Marshal())
	}
	r := Release{NodeID: 5}
	if got := r.AppendMarshal(nil); !bytes.Equal(got, r.Marshal()) {
		t.Fatalf("release: %x != %x", got, r.Marshal())
	}
	if got := (Ack{}).AppendMarshal(nil); !bytes.Equal(got, Ack{}.Marshal()) {
		t.Fatalf("ack: %x != %x", got, Ack{}.Marshal())
	}
	bt := Beat{Channel: 1, Lag: 42, Seq: 9}
	if got := bt.AppendMarshal(nil); !bytes.Equal(got, bt.Marshal()) {
		t.Fatalf("beat: %x != %x", got, bt.Marshal())
	}
	h := HRV{MeanRRMs: 800, RMSSDMs: 35, MinRRMs: 700, MaxRRMs: 900, Beats: 12, Seq: 2}
	if got := h.AppendMarshal(nil); !bytes.Equal(got, h.Marshal()) {
		t.Fatalf("hrv: %x != %x", got, h.Marshal())
	}
}

// TestScratchPathsAllocateNothing locks in the zero-alloc contract for
// the encode/decode hot path with caller-supplied buffers.
func TestScratchPathsAllocateNothing(t *testing.T) {
	f := Frame{Dest: AddrBSData, Payload: make([]byte, 18)}
	scratch := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		scratch = f.AppendEncode(scratch[:0])
	}); n != 0 {
		t.Fatalf("AppendEncode allocates %v per run", n)
	}
	image := f.Encode()
	if n := testing.AllocsPerRun(100, func() {
		_ = CRC16(image)
	}); n != 0 {
		t.Fatalf("CRC16 allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _, _ = DecodeInPlace(image)
	}); n != 0 {
		t.Fatalf("DecodeInPlace allocates %v per run", n)
	}
	b := Beacon{Seq: 1, CycleMicros: 30000, Entries: []SlotEntry{{1, 1}, {2, 2}, {3, 3}}}
	if n := testing.AllocsPerRun(100, func() {
		scratch = b.AppendMarshal(scratch[:0])
	}); n != 0 {
		t.Fatalf("Beacon.AppendMarshal allocates %v per run", n)
	}
	payload := b.Marshal()
	var decoded Beacon
	if err := decoded.Unmarshal(payload); err != nil { // grows Entries once
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = decoded.Unmarshal(payload)
	}); n != 0 {
		t.Fatalf("Beacon.Unmarshal with %d entries allocates %v per run", len(b.Entries), n)
	}
}
