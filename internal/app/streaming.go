package app

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/ecg"
)

// StreamingConfig parameterises the ECG streaming application of §5.1.
type StreamingConfig struct {
	// SampleRateHz is the per-channel sampling frequency (the Table 1
	// sweep parameter).
	SampleRateHz float64
	// Channels is the number of ECG channels streamed (the paper: 2).
	Channels int
	// Signal drives the electrodes.
	Signal *ecg.Generator
}

// samplesPerPacket is the number of 12-bit samples packed into one
// payload: the paper's 18-byte payload.
const samplesPerPacket = 12

// Streaming is the ECG streaming application: every acquisition buffers
// one sample per channel; once a payload's worth has accumulated it is
// packed (12-bit samples, 18 bytes) and handed to the MAC for the next
// slot.
type Streaming struct {
	env Env
	acq *acquisition

	buf     []codec.Sample
	isrs    deferred[[]codec.Sample] // one acquisition's samples each
	batches deferred[[]codec.Sample] // one packet's samples each
	sent    uint64
	dropped uint64
	running bool
}

// NewStreaming builds the application and configures the front-end.
func NewStreaming(env Env, cfg StreamingConfig) *Streaming {
	env.validate()
	if cfg.SampleRateHz <= 0 {
		panic("app: streaming sample rate must be positive")
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 2
	}
	if samplesPerPacket%cfg.Channels != 0 {
		panic(fmt.Sprintf("app: %d samples/packet not divisible by %d channels",
			samplesPerPacket, cfg.Channels))
	}
	if cfg.Signal == nil {
		panic("app: streaming needs a signal source")
	}
	s := &Streaming{env: env}
	s.isrs.run = s.buffer
	s.batches.run = s.assemble
	s.acq = acquire(env.Frontend, cfg.Signal, cfg.SampleRateHz, cfg.Channels, s.onAcquisition)
	return s
}

// Name implements App.
func (s *Streaming) Name() string { return "ecg-stream" }

// Start implements App.
func (s *Streaming) Start() {
	if s.running {
		return
	}
	s.running = true
	s.env.Frontend.Start(s.acq.fs)
}

// Stop implements App.
func (s *Streaming) Stop() {
	if !s.running {
		return
	}
	s.running = false
	s.env.Frontend.Stop()
}

// Downshift implements Downshifter: the sampling rate divides by
// factor, halving (at the default factor 2) the radio and MCU load per
// unit time. The packet format is unchanged — payloads just fill more
// slowly.
func (s *Streaming) Downshift(factor float64) {
	s.acq.downshift(factor)
}

// PacketsSent reports how many payloads were handed to the MAC.
func (s *Streaming) PacketsSent() uint64 { return s.sent }

// PacketsDropped reports payloads the MAC queue refused.
func (s *Streaming) PacketsDropped() uint64 { return s.dropped }

// ResetCounters zeroes the application statistics (post-warmup).
func (s *Streaming) ResetCounters() {
	s.sent = 0
	s.dropped = 0
}

// onAcquisition runs in hardware-event context for each sample set.
func (s *Streaming) onAcquisition(i int64, samples []codec.Sample) {
	// The per-pair cost covers the acquisition ISR and buffering.
	it := s.isrs.get()
	it.val = append(it.val[:0], samples...)
	s.env.Sched.Interrupt("ecg-sample", s.env.Cost.SamplePairStreaming, it.call)
}

// buffer is the acquisition ISR: it appends one sample set and, once a
// payload's worth has accumulated, defers the packet assembly.
func (s *Streaming) buffer(samples *[]codec.Sample) {
	s.buf = append(s.buf, *samples...)
	if len(s.buf) < samplesPerPacket {
		return
	}
	it := s.batches.get()
	it.val = append(it.val[:0], s.buf[:samplesPerPacket]...)
	s.buf = s.buf[:copy(s.buf, s.buf[samplesPerPacket:])]
	// Packet assembly is a deferred task (header + packing).
	if !s.env.Sched.PostFn("ecg-assemble", s.env.Cost.PacketAssembly, it.call) {
		s.batches.drop(it)
	}
}

// assemble packs one batch and hands it to the MAC.
func (s *Streaming) assemble(batch *[]codec.Sample) {
	payload := codec.Pack(*batch)
	if s.env.Mac.Send(payload) {
		s.sent++
	} else {
		s.dropped++
	}
}
