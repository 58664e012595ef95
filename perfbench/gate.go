package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/paperdata"
	"repro/internal/radio"
	"repro/internal/report"
)

// verdict is the correctness gate's finding for one pass.
type verdict struct {
	// attempted counts the pass's points (table rows and Figure 4 bars
	// for tables); failed counts those that failed, were omitted or did
	// not fully join.
	attempted, failed int
	// lateJoins counts points where an unslotted MAC's node finished
	// associating after warmup (see check).
	lateJoins int
	// problems describes every failure, band violation or mismatch.
	problems []string
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// band is a paper-fidelity tolerance in percent against the paper's
// Real column, as the repo's reproduction tests enforce it. mcuVsSim,
// when set, also bounds the µC error against the paper's simulator.
type band struct{ radio, mcu, mcuVsSim float64 }

var bands = map[string]band{
	"table1": {8, 10, 4},
	"table2": {8, 15, 0},
	"table3": {8, 8, 0},
	"table4": {8, 8, 0},
}

// bandFor returns a row's band. Table 4's n=2 row is wider: the
// paper's Tables 2 and 4 disagree with each other there.
func bandFor(table, row string) band {
	b := bands[table]
	if table == "table4" && row == "n=2" {
		b.radio = 12
	}
	return b
}

func checkBand(v *verdict, where string, b band, c report.Comparison) {
	if e := math.Abs(c.RadioErrVsReal()); e > b.radio {
		v.fail("%s: radio %.1f mJ is %.1f%% from the paper's %.1f (band %g%%)", where, c.OursRadioMJ, e, c.RadioRealMJ, b.radio)
	}
	if e := math.Abs(c.MCUErrVsReal()); e > b.mcu {
		v.fail("%s: uC %.1f mJ is %.1f%% from the paper's %.1f (band %g%%)", where, c.OursMCUMJ, e, c.MCURealMJ, b.mcu)
	}
	if e := math.Abs(c.MCUErrVsSim()); b.mcuVsSim > 0 && e > b.mcuVsSim {
		v.fail("%s: uC %.1f mJ is %.1f%% from the paper's simulator %.1f (band %g%%)", where, c.OursMCUMJ, e, c.MCUSimMJ, b.mcuVsSim)
	}
}

// check runs the gate on one pass of b.
func (b *batch) check(p *pass) verdict {
	var v verdict
	if b.tables != nil && p.results == nil {
		b.checkRegeneration(p, &v)
		return v
	}
	for i, res := range p.results {
		v.attempted++
		label := b.points[i].Label
		switch {
		case p.errs[i] != nil:
			v.failed++
			v.fail("%s: %v", label, p.errs[i])
		case res.JoinedAll:
		case !slotted(b.points[i].Config.Protocol) && everyNodeAssociated(res):
			// Unslotted MACs associate through the same contended
			// channel as the data: under the macs load an LPL node can
			// finish associating after the 3 s warmup. That is the
			// protocol at work, not a lost point.
			v.lateJoins++
		default:
			v.failed++
			v.fail("%s: not every node joined during warmup", label)
		}
	}
	if b.name == "stream" && b.full && v.failed == 0 {
		// The workload is Table 1 row 1 itself.
		row := paperdata.Table1().Rows[0]
		nr := p.results[0].Node()
		checkBand(&v, "stream", bands["table1"], report.Comparison{
			RadioRealMJ: row.RadioRealMJ, MCURealMJ: row.MCURealMJ, MCUSimMJ: row.MCUSimMJ,
			OursRadioMJ: nr.RadioMJ(), OursMCUMJ: nr.MCUMJ(),
		})
	}
	return v
}

// slotted reports whether a protocol arbitrates through a slot table.
// The empty protocol is the TDMA variant selected by Config.Variant.
func slotted(p mac.Protocol) bool {
	d, ok := mac.Lookup(p)
	return !ok || d.Caps.Slotted
}

// everyNodeAssociated reports whether each node held an association
// for part of the measurement window.
func everyNodeAssociated(res core.Results) bool {
	for _, n := range res.Nodes {
		if n.Availability <= 0 {
			return false
		}
	}
	return true
}

// checkRegeneration gates a cmd/tables pass: 18 complete rows and two
// Figure 4 bars, each inside the paper-fidelity bands at full windows.
func (b *batch) checkRegeneration(p *pass, v *verdict) {
	v.attempted = len(b.points)
	if p.err != nil {
		v.failed = v.attempted
		v.fail("tables: %v", p.err)
		return
	}
	rows := 0
	for _, t := range p.tables {
		for _, c := range t.Rows {
			rows++
			where := t.ID + "/" + c.Label
			if c.Omitted != "" {
				v.failed++
				v.fail("%s omitted: %s", where, c.Omitted)
				continue
			}
			if b.full {
				checkBand(v, where, bandFor(t.ID, c.Label), c)
			}
		}
	}
	if want := len(b.points) - 2; rows != want || len(p.bars) != 2 {
		v.failed = v.attempted
		v.fail("tables: %d rows and %d bars, want %d and 2", rows, len(p.bars), want)
		return
	}
	if !b.full {
		return
	}
	stream, rpeak := p.bars[0].Total(), p.bars[1].Total()
	if saving := 1 - rpeak/stream; saving < 0.55 || saving > 0.75 {
		v.fail("figure4: energy saving %.0f%%, the paper reports ~65%%", saving*100)
	}
	for _, c := range []struct {
		name      string
		got, real float64
	}{{"streaming", stream, paperdata.StreamingTotalRealMJ}, {"rpeak", rpeak, paperdata.RpeakTotalRealMJ}} {
		if e := math.Abs(c.got-c.real) / c.real * 100; e > 8 {
			v.fail("figure4: %s total %.1f mJ is %.1f%% from the paper's %.1f (band 8%%)", c.name, c.got, e, c.real)
		}
	}
}

// gridMatches checks the traced run's own drive of the tables grid
// against a regeneration pass: every simulator column must be equal to
// the bit, or the grid the traced run measures is not the one
// cmd/tables runs.
func (b *batch) gridMatches(grid, regen *pass) error {
	scale := float64(paperdata.Window) / float64(b.points[0].Config.Duration)
	same := func(i int, label string, radioMJ, mcuMJ float64) error {
		if grid.errs[i] != nil {
			return fmt.Errorf("grid point %s: %v", label, grid.errs[i])
		}
		nr := grid.results[i].Node()
		if nr.RadioMJ()*scale != radioMJ || nr.MCUMJ()*scale != mcuMJ { //lint:allow floateq the same arithmetic on the same run must agree to the bit
			return fmt.Errorf("grid point %s: %v/%v mJ, the regeneration says %v/%v",
				label, nr.RadioMJ()*scale, nr.MCUMJ()*scale, radioMJ, mcuMJ)
		}
		return nil
	}
	i := 0
	for _, t := range regen.tables {
		for _, c := range t.Rows {
			if err := same(i, b.points[i].Label, c.OursRadioMJ, c.OursMCUMJ); err != nil {
				return err
			}
			i++
		}
	}
	for _, bar := range regen.bars {
		if err := same(i, bar.Label, bar.RadioMJ, bar.MCUMJ); err != nil {
			return err
		}
		i++
	}
	if i != len(grid.results) {
		return fmt.Errorf("grid has %d points, the regeneration %d", len(grid.results), i)
	}
	return nil
}

// pointDigest is what the digest covers of one core.Run: every energy
// report, every MAC, radio and channel counter, the kernel event count
// and the trace totals.
type pointDigest struct {
	Err           string
	Events        uint64
	Joined        bool
	Channel       channel.Stats
	BS            mac.BSStats
	BSEnergy      energy.Report
	TraceRecorded uint64
	TraceDropped  uint64
	Nodes         []nodeDigest
}

type nodeDigest struct {
	Energy         energy.Report
	Mac            mac.Stats
	Radio          radio.Stats
	PacketsSent    uint64
	PacketsDropped uint64
	Beats          uint64
}

// digest hashes a pass's outputs. Two passes with equal inputs must
// digest equal; a parent and a change that claim identical behaviour
// must print equal digests for the same workload and seed.
func digest(p *pass) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	put := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("digest: %w", err)
		}
		return nil
	}
	if p.tables != nil || p.err != nil {
		if err := put([]any{p.tables, p.bars, errText(p.err)}); err != nil {
			return "", err
		}
	}
	for i, res := range p.results {
		d := pointDigest{
			Err:           errText(p.errs[i]),
			Events:        res.KernelEvents,
			Joined:        res.JoinedAll,
			Channel:       res.Channel,
			BS:            res.BSStats,
			BSEnergy:      res.BSEnergy,
			TraceRecorded: res.Trace.Recorded(),
			TraceDropped:  res.Trace.Dropped(),
		}
		for _, n := range res.Nodes {
			d.Nodes = append(d.Nodes, nodeDigest{n.Energy, n.Mac, n.Radio, n.PacketsSent, n.PacketsDropped, n.Beats})
		}
		if err := put(d); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// counts are the exact per-pass counts of the layer metrics, summed
// over points and nodes. They repeat exactly for a seed.
func counts(rs []core.Results) []metric {
	var events, sent, dropped, beats, tx, rx, crc, trans, coll, corrupt uint64
	var dataSent, acked, retries, cca, strobes, recorded, tdropped uint64
	var nodeMJ float64
	for _, r := range rs {
		events += r.KernelEvents
		trans += r.Channel.Transmissions
		coll += r.Channel.Collisions
		corrupt += r.Channel.CorruptCopies
		recorded += r.Trace.Recorded()
		tdropped += r.Trace.Dropped()
		for _, n := range r.Nodes {
			sent += n.PacketsSent
			dropped += n.PacketsDropped
			beats += n.Beats
			tx += n.Radio.TxFrames
			rx += n.Radio.RxAccepted
			crc += n.Radio.CRCDrops
			dataSent += n.Mac.DataSent
			acked += n.Mac.DataAcked
			retries += n.Mac.Retries
			cca += n.Mac.CCAAttempts
			strobes += n.Mac.StrobesSent
			nodeMJ += n.TotalMJ()
		}
	}
	ratio := 0.0
	if dataSent > 0 {
		ratio = float64(acked) / float64(dataSent)
	}
	c := func(name string, v uint64) metric { return metric{name, "count", float64(v)} }
	return []metric{
		c("sim.events", events),
		c("app.packets_sent", sent),
		c("app.packets_dropped", dropped),
		c("app.beats", beats),
		c("radio.tx_frames", tx),
		c("radio.rx_accepted", rx),
		c("radio.crc_drops", crc),
		c("channel.transmissions", trans),
		c("channel.collisions", coll),
		c("channel.corrupt_copies", corrupt),
		c("mac.data_sent", dataSent),
		c("mac.data_acked", acked),
		c("mac.retries", retries),
		c("mac.cca_attempts", cca),
		c("mac.strobes_sent", strobes),
		{"mac.ack_ratio", "ratio", ratio},
		c("metrics.trace_recorded", recorded),
		c("metrics.trace_dropped", tdropped),
		{"energy.node_mj", "mJ", nodeMJ},
	}
}
