package app

import (
	"math"

	"repro/internal/approx"
	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/packet"
)

// HRVConfig parameterises the heart-rate-variability application, the
// framework's demonstration that the §5.2 trade — more microcontroller
// work for less radio — extends past per-beat events: the node runs the
// R-peak detector, accumulates beat-to-beat (RR) intervals, and
// transmits one statistics packet per window of beats.
type HRVConfig struct {
	// SampleRateHz is fixed by the detector; 0 selects 200 Hz.
	SampleRateHz float64
	// Signal drives the electrode (HRV needs one lead).
	Signal *ecg.Generator
}

// hrvWindowBeats is how many RR intervals one summary covers.
const hrvWindowBeats = 16

// HRV is the on-node HRV analysis application.
type HRV struct {
	env Env
	acq *acquisition

	detector  *ecg.Detector
	lastBeat  int64 // sample index of the previous beat (-1 = none)
	sample    int64
	rrs       []float64              // RR intervals of the open window, seconds
	isrs      deferred[codec.Sample] // one acquisition's lead sample each
	summaries deferred[[]float64]    // one finished window each

	windows uint64
	beats   uint64
	sent    uint64
	dropped uint64
	seq     uint8
	running bool
}

// NewHRV builds the application and configures the front-end.
func NewHRV(env Env, cfg HRVConfig) *HRV {
	env.validate()
	if approx.Unset(cfg.SampleRateHz) {
		cfg.SampleRateHz = 200
	}
	if cfg.SampleRateHz <= 0 {
		panic("app: hrv sample rate must be positive")
	}
	if cfg.Signal == nil {
		panic("app: hrv needs a signal source")
	}
	h := &HRV{
		env:      env,
		detector: ecg.NewDetector(cfg.SampleRateHz),
		lastBeat: -1,
	}
	h.isrs.run = h.detect
	h.summaries.run = func(rrs *[]float64) { h.sendSummary(*rrs) }
	h.acq = acquire(env.Frontend, cfg.Signal, cfg.SampleRateHz, 1, h.onAcquisition)
	return h
}

// Name implements App.
func (h *HRV) Name() string { return "hrv" }

// Start implements App.
func (h *HRV) Start() {
	if h.running {
		return
	}
	h.running = true
	h.env.Frontend.Start(h.acq.fs)
}

// Stop implements App.
func (h *HRV) Stop() {
	if !h.running {
		return
	}
	h.running = false
	h.env.Frontend.Stop()
}

// Downshift implements Downshifter. The detector is rebuilt at the new
// rate and the RR baseline resets: a beat index from the old rate would
// corrupt the first interval computed at the new one, so the stream
// restarts from the next beat instead.
func (h *HRV) Downshift(factor float64) {
	if !h.acq.downshift(factor) {
		return
	}
	h.detector = ecg.NewDetector(h.acq.fs)
	h.lastBeat = -1
}

// BeatsDetected reports detected beats.
func (h *HRV) BeatsDetected() uint64 { return h.beats }

// WindowsSent reports summary packets handed to the MAC.
func (h *HRV) WindowsSent() uint64 { return h.sent }

// PacketsDropped reports summaries the MAC queue refused.
func (h *HRV) PacketsDropped() uint64 { return h.dropped }

// ResetCounters zeroes the application statistics (post-warmup).
func (h *HRV) ResetCounters() {
	h.windows = 0
	h.beats = 0
	h.sent = 0
	h.dropped = 0
}

// onAcquisition runs the detector and the RR statistics pipeline.
func (h *HRV) onAcquisition(i int64, samples []codec.Sample) {
	// Detector cost per sample plus a small RR bookkeeping charge.
	cycles := h.env.Cost.RpeakAcquirePair + h.env.Cost.RpeakPerChannelSample
	it := h.isrs.get()
	it.val = samples[0]
	h.env.Sched.Interrupt("hrv-sample", cycles, it.call)
}

// detect is the acquisition ISR.
func (h *HRV) detect(sample *codec.Sample) {
	idx := h.sample
	h.sample++
	lag := h.detector.Push(*sample)
	if lag == 0 {
		return
	}
	beatAt := idx - int64(lag)
	h.beats++
	if h.lastBeat >= 0 {
		rr := float64(beatAt-h.lastBeat) / h.acq.fs
		h.rrs = append(h.rrs, rr)
	}
	h.lastBeat = beatAt
	if len(h.rrs) < hrvWindowBeats {
		return
	}
	it := h.summaries.get()
	it.val = append(it.val[:0], h.rrs...)
	h.rrs = h.rrs[:0]
	h.windows++
	// Summarising a window is a deferred task; its cost scales with
	// the window length (fixed-point statistics on the MSP430).
	statCycles := int64(len(it.val)) * 220
	if !h.env.Sched.PostFn("hrv-summarise", statCycles, it.call) {
		h.summaries.drop(it)
	}
}

// sendSummary computes the window statistics and queues the packet.
func (h *HRV) sendSummary(rrs []float64) {
	var sum, minRR, maxRR float64
	minRR = math.Inf(1)
	for _, rr := range rrs {
		sum += rr
		if rr < minRR {
			minRR = rr
		}
		if rr > maxRR {
			maxRR = rr
		}
	}
	mean := sum / float64(len(rrs))
	var ssq float64
	for i := 1; i < len(rrs); i++ {
		d := rrs[i] - rrs[i-1]
		ssq += d * d
	}
	rmssd := 0.0
	if len(rrs) > 1 {
		rmssd = math.Sqrt(ssq / float64(len(rrs)-1))
	}

	h.seq++
	p := packet.HRV{
		MeanRRMs: clampMs(mean),
		RMSSDMs:  clampMs(rmssd),
		MinRRMs:  clampMs(minRR),
		MaxRRMs:  clampMs(maxRR),
		Beats:    uint8(len(rrs)),
		Seq:      h.seq,
	}
	if h.env.Mac.Send(p.Marshal()) {
		h.sent++
	} else {
		h.dropped++
	}
}

// clampMs converts seconds to a bounded millisecond field.
func clampMs(s float64) uint16 {
	ms := s * 1e3
	if ms < 0 {
		return 0
	}
	if ms > 65535 {
		return 65535
	}
	return uint16(ms + 0.5)
}
