// Package app implements the biomedical applications the paper evaluates
// (§5): 2-channel ECG streaming, and the on-node Rpeak heart-beat
// detector that trades a little microcontroller work for a large radio
// saving.
package app

import (
	"math"

	"repro/internal/asic"
	"repro/internal/codec"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/tinyos"
)

// App is the node layer's view of an application.
type App interface {
	// Name identifies the application ("ecg-stream", "rpeak").
	Name() string
	// Start begins acquisition; called once the MAC holds a slot.
	Start()
	// Stop halts acquisition.
	Stop()
}

// Downshifter is implemented by applications that can reduce their
// sampling rate under energy pressure — the sample-rate rung of the
// battery graceful-degradation ladder. Downshift divides the sampling
// rate by factor (> 1); it may be called while running or stopped, and
// composes across calls (two factor-2 downshifts quarter the rate).
type Downshifter interface {
	Downshift(factor float64)
}

// Env bundles the node facilities an application runs on.
type Env struct {
	Sched    *tinyos.Sched
	Frontend *asic.Frontend
	Mac      mac.Mac
	Cost     platform.CostModel
	Tracer   *metrics.Recorder
	NodeName string
}

// validate panics on an incomplete environment.
func (e Env) validate() {
	if e.Sched == nil || e.Frontend == nil || e.Mac == nil {
		panic("app: incomplete environment")
	}
}

// sampler is a multi-channel signal: the reading of sample i of channel
// ch at fs Hz (ecg.Generator, ecg.EEGGenerator).
type sampler interface {
	SampleAt(ch int, i int64, fs float64) codec.Sample
}

// acquisition binds an application's signal to its front-end at the
// application's current sampling rate. It is the front-end's Source: the
// front-end's acquisition i reads the signal's sample i+offset at fs.
type acquisition struct {
	f      *asic.Frontend
	src    sampler
	fs     float64
	offset int64
}

// acquire configures f to sample channels 0..channels-1 of src at fs and
// hand each acquisition to h.
func acquire(f *asic.Frontend, src sampler, fs float64, channels int, h asic.SampleHandler) *acquisition {
	a := &acquisition{f: f, src: src, fs: fs}
	enabled := make([]int, channels)
	for i := range enabled {
		enabled[i] = i
	}
	f.Configure(a, enabled, h)
	return a
}

// Sample implements asic.Source.
func (a *acquisition) Sample(ch int, i int64) codec.Sample {
	return a.src.SampleAt(ch, i+a.offset, a.fs)
}

// downshift divides the sampling rate by factor and retunes the
// front-end; it reports false, changing nothing, for factor <= 1. The
// front-end's acquisition index keeps counting across the change, so the
// offset is re-based to keep the signal's time continuous: the next
// acquisition reads the signal at most one new period after the last one
// (i/fs alone would jump to about factor times the elapsed signal time).
func (a *acquisition) downshift(factor float64) bool {
	if factor <= 1 {
		return false
	}
	next := a.f.SamplesTaken()
	last := next - 1 + a.offset // signal index of the last acquisition
	a.fs /= factor
	a.offset = int64(math.Floor(float64(last)/factor)) + 1 - next
	a.f.Retune(a.fs)
	return true
}
