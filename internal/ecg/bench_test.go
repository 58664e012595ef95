package ecg

import (
	"testing"

	"repro/internal/codec"
)

// sampleSink keeps the benchmarked calls from being optimised away.
var sampleSink codec.Sample

// BenchmarkSampleAt measures ECG synthesis for a single consumer, the
// per-acquisition cost of every simulated sampling tick when no other
// node or channel shares the instant: every call misses the memo.
func BenchmarkSampleAt(b *testing.B) {
	b.ReportAllocs()
	g := NewGenerator(Params{HeartRateBPM: 75, JitterFrac: 0.02, NoiseAmp: 0.02, Seed: 1})
	for i := 0; i < b.N; i++ {
		sampleSink = g.SampleAt(0, int64(i), 200)
	}
}

// BenchmarkSampleAtShared measures ECG synthesis as a 5-node, 2-channel
// body runs it: 10 calls per instant, one synthesis and nine memo hits.
// One op is one call.
func BenchmarkSampleAtShared(b *testing.B) {
	b.ReportAllocs()
	g := NewGenerator(Params{HeartRateBPM: 75, JitterFrac: 0.02, NoiseAmp: 0.02, Seed: 1})
	for i := 0; i < b.N; i++ {
		sampleSink = g.SampleAt(i%2, int64(i/10), 200)
	}
}

// BenchmarkDetectorPush measures the streaming R-peak detector.
func BenchmarkDetectorPush(b *testing.B) {
	b.ReportAllocs()
	g := NewGenerator(Params{HeartRateBPM: 75, Seed: 1})
	d := NewDetector(200)
	// Pre-generate samples so the bench measures detection, not
	// synthesis.
	const n = 512
	samples := make([]codec.Sample, 0, n)
	for i := int64(0); i < n; i++ {
		samples = append(samples, g.SampleAt(0, i, 200))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(samples[i%n])
	}
}
