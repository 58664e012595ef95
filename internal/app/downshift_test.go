package app

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/sim"
)

// instantRecorder wraps a signal and records the instant i/fs of every
// channel-0 reading taken from it.
type instantRecorder struct {
	src      sampler
	instants []float64
	rates    []float64
}

func (r *instantRecorder) SampleAt(ch int, i int64, fs float64) codec.Sample {
	if ch == 0 {
		r.instants = append(r.instants, float64(i)/fs)
		r.rates = append(r.rates, fs)
	}
	return r.src.SampleAt(ch, i, fs)
}

// TestDownshiftKeepsSignalTime checks, for every application, that a
// factor-2 downshift leaves the signal's time continuous: consecutive
// acquisitions read instants one period apart, and across the downshift
// the first new instant follows the last old one by at most one new
// period (the front-end's index keeps counting, so i/fs alone would jump
// to about twice the elapsed signal time).
func TestDownshiftKeepsSignalTime(t *testing.T) {
	eeg := ecg.NewEEGGenerator(ecg.EEGParams{Seed: 1})
	apps := []struct {
		name  string
		build func(env Env) (App, Downshifter, *acquisition)
	}{
		{"streaming", func(env Env) (App, Downshifter, *acquisition) {
			a := NewStreaming(env, StreamingConfig{SampleRateHz: 205, Channels: 2, Signal: signal()})
			return a, a, a.acq
		}},
		{"rpeak", func(env Env) (App, Downshifter, *acquisition) {
			a := NewRpeak(env, RpeakConfig{Channels: 2, Signal: signal()})
			return a, a, a.acq
		}},
		{"hrv", func(env Env) (App, Downshifter, *acquisition) {
			a := NewHRV(env, HRVConfig{Signal: signal()})
			return a, a, a.acq
		}},
		{"eeg", func(env Env) (App, Downshifter, *acquisition) {
			a := NewEEGPower(env, EEGPowerConfig{Channels: 4, Signal: eeg})
			return a, a, a.acq
		}},
	}
	for _, tc := range apps {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			a, d, acq := tc.build(h.env)
			rec := &instantRecorder{src: acq.src}
			acq.src = rec
			a.Start()
			h.k.RunUntil(1500 * sim.Millisecond)
			d.Downshift(2)
			h.k.RunUntil(3 * sim.Second)

			shifted := false
			for k := 1; k < len(rec.instants); k++ {
				period := 1 / rec.rates[k]
				dt := rec.instants[k] - rec.instants[k-1]
				if rec.rates[k] != rec.rates[k-1] {
					shifted = true
					if dt <= 0 || dt > period*(1+1e-9) {
						t.Fatalf("across the downshift the signal moved %.6f s (%.6f -> %.6f), want (0, %.6f]",
							dt, rec.instants[k-1], rec.instants[k], period)
					}
					continue
				}
				if diff := dt - period; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("acquisition %d moved the signal %.6f s, want one period %.6f s", k, dt, period)
				}
			}
			if !shifted {
				t.Fatalf("no acquisition after the downshift (%d recorded)", len(rec.instants))
			}
		})
	}
}
