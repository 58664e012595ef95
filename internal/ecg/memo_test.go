package ecg

import (
	"math"
	"math/rand"
	"testing"
)

// TestSampleAtMemoIsExact drives one shared generator the way a body of
// nodes does — 5 nodes x 2 channels interleaved, each node at its own
// index with random skews of up to three table sizes (so entries are
// evicted and refilled), occasional steps back and repeats, and a sampling
// rate switch partway through (so one index is seen at two instants while
// its entry is still resident) — and checks every call bit for bit against
// a generator with an empty memo.
func TestSampleAtMemoIsExact(t *testing.T) {
	p := Params{HeartRateBPM: 75, JitterFrac: 0.02, NoiseAmp: 0.02, BaselineAmp: 0.05, Seed: 7}
	shared := NewGenerator(p)
	rng := rand.New(rand.NewSource(1))

	const nodes, channels, calls = 5, 2, 4000
	idx := make([]int64, nodes)
	for n := range idx {
		idx[n] = rng.Int63n(3 * memoSize)
	}
	fs := 200.0
	for call := 0; call < calls; call++ {
		if call == calls/2 {
			fs = 205 // a downshift-style rate change: indices keep counting
		}
		n := rng.Intn(nodes)
		i := idx[n]
		for ch := 0; ch < channels; ch++ {
			got := shared.SampleAt(ch, i, fs)
			want := NewGenerator(p).SampleAt(ch, i, fs)
			if got != want {
				t.Fatalf("call %d node %d ch %d: SampleAt(%d, %v) = %d, fresh generator %d",
					call, n, ch, i, fs, got, want)
			}
			tt := float64(i) / fs
			e := shared.memo[uint64(i)%memoSize]
			if math.Float64bits(e.t) != math.Float64bits(tt) ||
				math.Float64bits(e.v) != math.Float64bits(shared.ValueAt(tt)) {
				t.Fatalf("call %d: memo slot holds (%v, %v), want instant %v and its exact value", call, e.t, e.v, tt)
			}
		}
		switch r := rng.Intn(10); {
		case r == 0: // repeat the same index
		case r == 1: // step back
			idx[n] -= rng.Int63n(memoSize)
		default:
			idx[n] += 1 + rng.Int63n(3*memoSize)/16
		}
	}
}

// TestSampleAtMemoKeysOnInstant pins the rate-switch case directly: the
// same sample index at a new rate is a different instant and must not
// reuse the resident value.
func TestSampleAtMemoKeysOnInstant(t *testing.T) {
	p := Params{HeartRateBPM: 75, Seed: 3}
	g := NewGenerator(p)
	const i = 41 // 0.205 s at 200 Hz lands on the R wave; 0.41 s at 100 Hz does not
	if NewGenerator(p).SampleAt(0, i, 200) == NewGenerator(p).SampleAt(0, i, 100) {
		t.Fatalf("test instants too similar to tell apart")
	}
	for _, fs := range []float64{200, 100, 200} {
		if got, want := g.SampleAt(1, i, fs), NewGenerator(p).SampleAt(1, i, fs); got != want {
			t.Fatalf("SampleAt(%d, %v) = %d after a rate switch, want %d", i, fs, got, want)
		}
	}
}
