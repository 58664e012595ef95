package app

import (
	"repro/internal/approx"
	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// RpeakConfig parameterises the on-node beat detection application of
// §5.2.
type RpeakConfig struct {
	// SampleRateHz is fixed by the Rpeak algorithm; the paper uses
	// 200 Hz (one sample per channel every 5 ms). 0 selects 200.
	SampleRateHz float64
	// Channels is the number of monitored channels (the paper: 2).
	Channels int
	// Signal drives the electrodes.
	Signal *ecg.Generator
}

// Rpeak is the local-preprocessing application: the detector runs on
// every sample of every channel; when it reports a beat, a small event
// packet — "a beat occurred Lag samples ago on this channel" — is sent
// instead of the raw signal, cutting the radio load by more than an
// order of magnitude at the cost of the detector's cycles.
type Rpeak struct {
	env Env
	acq *acquisition

	detectors []*ecg.Detector
	isrs      deferred[[]codec.Sample] // one acquisition's samples each
	beatPkts  deferred[packet.Beat]    // one detected beat each
	beats     uint64
	sent      uint64
	dropped   uint64
	seq       uint8
	running   bool
}

// NewRpeak builds the application and configures the front-end.
func NewRpeak(env Env, cfg RpeakConfig) *Rpeak {
	env.validate()
	if approx.Unset(cfg.SampleRateHz) {
		cfg.SampleRateHz = 200
	}
	if cfg.SampleRateHz <= 0 {
		panic("app: rpeak sample rate must be positive")
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 2
	}
	if cfg.Signal == nil {
		panic("app: rpeak needs a signal source")
	}
	r := &Rpeak{env: env}
	r.isrs.run = r.detect
	r.beatPkts.run = r.assemble
	r.detectors = make([]*ecg.Detector, cfg.Channels)
	for ch := range r.detectors {
		r.detectors[ch] = ecg.NewDetector(cfg.SampleRateHz)
	}
	r.acq = acquire(env.Frontend, cfg.Signal, cfg.SampleRateHz, cfg.Channels, r.onAcquisition)
	return r
}

// Name implements App.
func (r *Rpeak) Name() string { return "rpeak" }

// Start implements App.
func (r *Rpeak) Start() {
	if r.running {
		return
	}
	r.running = true
	r.env.Frontend.Start(r.acq.fs)
}

// Stop implements App.
func (r *Rpeak) Stop() {
	if !r.running {
		return
	}
	r.running = false
	r.env.Frontend.Stop()
}

// Downshift implements Downshifter: the detectors are rebuilt at the
// divided rate (their thresholds and refractory windows are calibrated
// in samples, so they must match the new sampling period).
func (r *Rpeak) Downshift(factor float64) {
	if !r.acq.downshift(factor) {
		return
	}
	for ch := range r.detectors {
		r.detectors[ch] = ecg.NewDetector(r.acq.fs)
	}
}

// BeatsDetected reports beats found across all channels.
func (r *Rpeak) BeatsDetected() uint64 { return r.beats }

// PacketsSent reports beat packets handed to the MAC.
func (r *Rpeak) PacketsSent() uint64 { return r.sent }

// PacketsDropped reports beat packets the MAC queue refused.
func (r *Rpeak) PacketsDropped() uint64 { return r.dropped }

// ResetCounters zeroes the application statistics (post-warmup).
func (r *Rpeak) ResetCounters() {
	r.beats = 0
	r.sent = 0
	r.dropped = 0
}

// onAcquisition runs the detector over each channel's new sample.
func (r *Rpeak) onAcquisition(i int64, samples []codec.Sample) {
	// Acquisition plus one detector call per channel.
	cycles := r.env.Cost.RpeakAcquirePair +
		int64(len(samples))*r.env.Cost.RpeakPerChannelSample
	it := r.isrs.get()
	it.val = append(it.val[:0], samples...)
	r.env.Sched.Interrupt("rpeak-sample", cycles, it.call)
}

// detect is the acquisition ISR: one detector step per channel, and a
// deferred beat packet per detection.
func (r *Rpeak) detect(samples *[]codec.Sample) {
	for ch, s := range *samples {
		lag := r.detectors[ch].Push(s)
		if lag == 0 {
			continue
		}
		r.beats++
		r.env.Tracer.Recordf(r.env.Sched.Kernel().Now(), r.env.NodeName, metrics.KindBeat,
			"ch=%d lag=%d", ch, lag)
		r.seq++
		it := r.beatPkts.get()
		it.val = packet.Beat{Channel: uint8(ch), Lag: uint16(lag), Seq: r.seq}
		if !r.env.Sched.PostFn("rpeak-assemble", r.env.Cost.BeatPacketAssembly, it.call) {
			r.beatPkts.drop(it)
		}
	}
}

// assemble marshals one beat packet and hands it to the MAC.
func (r *Rpeak) assemble(beat *packet.Beat) {
	if r.env.Mac.Send(beat.Marshal()) {
		r.sent++
	} else {
		r.dropped++
	}
}
