package packet

import "testing"

// BenchmarkCRC16Frame measures the CRC over a full-size data frame image
// (the per-frame hardware check the model performs in software).
func BenchmarkCRC16Frame(b *testing.B) {
	b.ReportAllocs()
	img := Frame{Dest: AddrBSData, Payload: make([]byte, 18)}.Encode()
	b.SetBytes(int64(len(img)))
	for i := 0; i < b.N; i++ {
		CRC16(img)
	}
}

// BenchmarkEncodeDecode measures a frame round trip.
func BenchmarkEncodeDecode(b *testing.B) {
	b.ReportAllocs()
	f := Frame{Dest: AddrBSData, Payload: make([]byte, 18)}
	for i := 0; i < b.N; i++ {
		img := f.Encode()
		if _, ok, err := Decode(img); err != nil || !ok {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkBeaconMarshal measures slot-table beacon encoding.
func BenchmarkBeaconMarshal(b *testing.B) {
	b.ReportAllocs()
	bec := Beacon{Seq: 7, CycleMicros: 60000,
		Entries: []SlotEntry{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}}}
	var out Beacon
	for i := 0; i < b.N; i++ {
		p := bec.Marshal()
		if err := out.Unmarshal(p); err != nil {
			b.Fatal(err)
		}
	}
}
