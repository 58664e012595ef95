package app

import (
	"repro/internal/approx"
	"repro/internal/codec"
	"repro/internal/packet"
)

// EEGSource supplies multi-channel EEG samples (implemented by
// ecg.EEGGenerator).
type EEGSource interface {
	SampleAt(ch int, i int64, fs float64) codec.Sample
}

// EEGPowerConfig parameterises the multi-channel EEG activity monitor.
// Raw 24-channel EEG streaming does not fit the platform's one-frame-
// per-cycle TDMA budget (24 ch x 100 Hz x 1.5 B = 3.6 kB/s against
// ~0.9 kB/s of slot capacity), which is exactly the §5.2 argument again:
// process on the node. This application computes per-channel mean
// absolute amplitude over a window and ships the summary as a burst of
// frames, one per group of channels, exercising multi-packet queueing.
type EEGPowerConfig struct {
	// Channels is the electrode count (the paper's ASIC: up to 24 EEG).
	Channels int
	// SampleRateHz is the per-channel acquisition rate; 0 selects 128.
	SampleRateHz float64
	// WindowSeconds is the summary period; 0 selects 1 s.
	WindowSeconds float64
	// Signal drives the electrodes.
	Signal EEGSource
}

// channelsPerPacket bounds one summary frame: kind + seq + chunk index +
// per-channel 2-byte amplitudes within the ShockBurst payload limit.
const channelsPerPacket = 8

// EEGPower is the EEG activity application.
type EEGPower struct {
	env    Env
	acq    *acquisition
	window float64 // summary period, seconds

	accum     []int64                  // sum of |x - mid| per channel, this window
	isrs      deferred[[]codec.Sample] // one acquisition's samples each
	summaries deferred[eegWindow]      // one finished window each
	samples   int
	perWin    int
	seq       uint8

	windows uint64
	sent    uint64
	dropped uint64
	running bool
}

// NewEEGPower builds the application and configures the front-end.
func NewEEGPower(env Env, cfg EEGPowerConfig) *EEGPower {
	env.validate()
	if cfg.Channels <= 0 {
		cfg.Channels = 24
	}
	if approx.Unset(cfg.SampleRateHz) {
		cfg.SampleRateHz = 128
	}
	if cfg.SampleRateHz <= 0 {
		panic("app: eeg sample rate must be positive")
	}
	if approx.Unset(cfg.WindowSeconds) {
		cfg.WindowSeconds = 1
	}
	if cfg.WindowSeconds <= 0 {
		panic("app: eeg window must be positive")
	}
	if cfg.Signal == nil {
		panic("app: eeg needs a signal source")
	}
	e := &EEGPower{env: env, window: cfg.WindowSeconds, accum: make([]int64, cfg.Channels)}
	e.isrs.run = e.accumulate
	e.summaries.run = func(w *eegWindow) { e.emit(w.sums, w.n) }
	e.acq = acquire(env.Frontend, cfg.Signal, cfg.SampleRateHz, cfg.Channels, e.onAcquisition)
	e.sizeWindow()
	return e
}

// sizeWindow sets the samples per window from the current rate.
func (e *EEGPower) sizeWindow() {
	e.perWin = max(1, int(e.acq.fs*e.window))
}

// Name implements App.
func (e *EEGPower) Name() string { return "eeg-power" }

// Start implements App.
func (e *EEGPower) Start() {
	if e.running {
		return
	}
	e.running = true
	e.env.Frontend.Start(e.acq.fs)
}

// Stop implements App.
func (e *EEGPower) Stop() {
	if !e.running {
		return
	}
	e.running = false
	e.env.Frontend.Stop()
}

// Downshift implements Downshifter: the window keeps its wall-clock
// length (perWin shrinks with the rate), so summary packets still flow
// at the same period but each one integrates fewer samples.
func (e *EEGPower) Downshift(factor float64) {
	if e.acq.downshift(factor) {
		e.sizeWindow()
	}
}

// WindowsSummarised reports completed windows.
func (e *EEGPower) WindowsSummarised() uint64 { return e.windows }

// PacketsSent reports summary frames handed to the MAC.
func (e *EEGPower) PacketsSent() uint64 { return e.sent }

// PacketsDropped reports frames the MAC queue refused.
func (e *EEGPower) PacketsDropped() uint64 { return e.dropped }

// ResetCounters zeroes the application statistics (post-warmup).
func (e *EEGPower) ResetCounters() {
	e.windows = 0
	e.sent = 0
	e.dropped = 0
}

// eegWindow is one finished window awaiting its summary task.
type eegWindow struct {
	sums []int64
	n    int64
}

// onAcquisition accumulates per-channel activity; at window end the
// summary is chunked into frames.
func (e *EEGPower) onAcquisition(i int64, samples []codec.Sample) {
	// Per-acquisition cost: one accumulate per channel, cheaper than a
	// detector call.
	cycles := e.env.Cost.RpeakAcquirePair + int64(len(samples))*60
	it := e.isrs.get()
	it.val = append(it.val[:0], samples...)
	e.env.Sched.Interrupt("eeg-sample", cycles, it.call)
}

// accumulate is the acquisition ISR.
func (e *EEGPower) accumulate(samples *[]codec.Sample) {
	const mid = int64(codec.MaxSample) / 2
	for ch, s := range *samples {
		d := int64(s) - mid
		if d < 0 {
			d = -d
		}
		e.accum[ch] += d
	}
	e.samples++
	if e.samples < e.perWin {
		return
	}
	it := e.summaries.get()
	it.val.sums = append(it.val.sums[:0], e.accum...)
	it.val.n = int64(e.samples)
	for ch := range e.accum {
		e.accum[ch] = 0
	}
	e.samples = 0
	e.windows++
	// Summarising and chunking is a deferred task.
	if !e.env.Sched.PostFn("eeg-summarise", int64(len(it.val.sums))*180, it.call) {
		e.summaries.drop(it)
	}
}

// emit chunks the per-channel means into frames of channelsPerPacket.
func (e *EEGPower) emit(sums []int64, n int64) {
	if !e.running {
		return // stopped while the summary task was queued
	}
	e.seq++
	for chunk := 0; chunk*channelsPerPacket < len(sums); chunk++ {
		lo := chunk * channelsPerPacket
		hi := lo + channelsPerPacket
		if hi > len(sums) {
			hi = len(sums)
		}
		payload := make([]byte, 0, 3+2*(hi-lo))
		payload = append(payload, byte(packet.KindEEG), e.seq, byte(chunk))
		for _, s := range sums[lo:hi] {
			mean := s / n
			if mean > 0xFFFF {
				mean = 0xFFFF
			}
			payload = append(payload, byte(mean>>8), byte(mean))
		}
		if e.env.Mac.Send(payload) {
			e.sent++
		} else {
			e.dropped++
		}
	}
}
