package mactest

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/ecg"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the lifecycle golden file")

// TestLifecycleGolden pins the node/base-station MAC lifecycle bit for
// bit: crash and reboot, blackout, interference, the degradation cascade
// (stretch, beacon-only park, brownout) and a missed-beacon rejoin with
// silence reclaim, under every registered protocol. The conformance kit
// only checks properties; this golden catches any change in the exact
// counters, loss-time accounting and event stream. Refresh with:
//
//	go test ./internal/mac/mactest -run TestLifecycleGolden -update
func TestLifecycleGolden(t *testing.T) {
	var b strings.Builder
	for _, proto := range mac.Protocols() {
		for _, sc := range []struct {
			name string
			cfg  core.Config
		}{
			{"faults", faultScenario(proto)},
			{"cascade", cascadeScenario(t, proto)},
			{"rejoin", rejoinScenario(proto)},
		} {
			fmt.Fprintf(&b, "== %s/%s\n", proto, sc.name)
			renderLifecycle(t, &b, sc.cfg)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "lifecycle.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden snapshot (run with -update to record): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("lifecycle golden drifted at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("lifecycle golden drifted: %d lines, want %d", len(gl), len(wl))
	}
}

// rejoinScenario blacks node2 out in both directions for 1.7 s: a
// beaconed node misses enough beacons to rejoin, and the base station's
// silence reclaim (armed at about 1.2 s of silence) frees its
// association first, so the rejoin takes a fresh grant.
func rejoinScenario(proto mac.Protocol) core.Config {
	cfg := Scenario(proto, 71)
	switch proto {
	case mac.ProtoDynamic:
		cfg.SlotReclaimCycles = 30
	case mac.ProtoLPL:
		cfg.SlotReclaimCycles = 12
	default:
		cfg.SlotReclaimCycles = 40
	}
	cfg.Faults = []fault.Fault{
		{Kind: fault.KindBlackout, From: "bs", To: "node2", At: 4200 * sim.Millisecond, Until: 5900 * sim.Millisecond},
		{Kind: fault.KindBlackout, From: "node2", To: "bs", At: 4200 * sim.Millisecond, Until: 5900 * sim.Millisecond},
	}
	return cfg
}

// renderLifecycle runs cfg's network and writes every lifecycle figure
// in fixed-precision text. It assembles the stack from the node layer
// (as core.Run does, for the beat-detection application) so the MACs'
// loss-time accessors, which core.Results does not carry, are in reach.
func renderLifecycle(t *testing.T, w *strings.Builder, cfg core.Config) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.App != core.AppRpeak {
		t.Fatalf("lifecycle harness drives the beat-detection app only, got %q", cfg.App)
	}
	k := sim.NewKernel(cfg.Seed)
	ch := channel.New(k)
	rec := metrics.NewRecorder(cfg.TraceLimit)
	base := node.NewBase(k, ch, rec, "bs", mac.BSConfig{
		Protocol:     cfg.Protocol,
		Params:       cfg.MACParams,
		StaticCycle:  cfg.Cycle,
		ReclaimAfter: cfg.SlotReclaimCycles,
	})
	signal := ecg.NewGenerator(ecg.Params{
		HeartRateBPM: cfg.HeartRateBPM,
		JitterFrac:   0.02,
		NoiseAmp:     0.02,
		BaselineAmp:  0.05,
		Seed:         cfg.Seed,
	})
	sensors := make([]*node.Sensor, cfg.Nodes)
	for i := range sensors {
		s := node.NewSensor(k, ch, rec, node.SensorConfig{
			MAC: mac.NodeConfig{
				Protocol: cfg.Protocol,
				Params:   cfg.MACParams,
				NodeID:   uint8(i + 1),
				Profile:  platform.IMEC(),
			},
			Battery:   cfg.Battery,
			BrownoutV: cfg.BrownoutV,
			Degrade:   cfg.Degrade,
		})
		s.AttachApp(func(env app.Env) app.App {
			return app.NewRpeak(env, app.RpeakConfig{
				SampleRateHz: cfg.SampleRateHz,
				Channels:     2,
				Signal:       signal,
			})
		})
		sensors[i] = s
	}
	var inj *fault.Injector
	if len(cfg.Faults) > 0 || cfg.Battery != nil {
		inj = fault.New(k, ch, rec)
		for _, s := range sensors {
			s := s
			inj.AddNode(s.ID, fault.NodeHooks{
				Crash:    s.Crash,
				Reboot:   s.Reboot,
				OnJoined: s.Mac.OnJoined,
				Stats:    s.Mac.Stats,
			})
			if cfg.Battery != nil {
				id := s.ID
				s.OnBrownout(func() { inj.NoteBrownout(id) })
			}
		}
		inj.Install(cfg.Faults)
	}
	k.Schedule(0, func(*sim.Kernel) { base.Start() })
	for i, s := range sensors {
		s := s
		k.Schedule(sim.Time(i+1)*cfg.StartStagger, func(*sim.Kernel) { s.Start() })
	}
	k.RunUntil(cfg.Warmup)
	for _, s := range sensors {
		s.ResetAccounting(k.Now())
	}
	base.ResetAccounting(k.Now())
	rec.ResetDerived()
	k.RunUntil(cfg.Warmup + cfg.Duration)

	for _, s := range sensors {
		rep := s.FinalizeEnergy(k.Now())
		fmt.Fprintf(w, "%s mac %+v\n", s.Name, s.Mac.Stats())
		fmt.Fprintf(w, "%s joined=%t slot=%d cycle=%d gen=%d\n", s.Name,
			s.Mac.Joined(), s.Mac.Slot(), int64(s.Mac.CycleLength()), s.Mac.Generation())
		fmt.Fprintf(w, "%s ctrlRx=%d ctrlTx=%d joinIdle=%d joinedTime=%d availability=%.9f\n", s.Name,
			int64(s.Mac.ControlRxTime()), int64(s.Mac.ControlTxTime()), int64(s.Mac.JoinIdleTime()),
			int64(s.Mac.JoinedTime()), float64(s.Mac.JoinedTime())/float64(cfg.Duration))
		fmt.Fprintf(w, "%s energy total=%.12e", s.Name, rep.TotalJ)
		for _, c := range energy.AllLossCategories() {
			fmt.Fprintf(w, " %s=%.12e", c, rep.Losses[c])
		}
		fmt.Fprintln(w)
		if br := s.FinalizeBattery(k.Now()); br != nil {
			fmt.Fprintf(w, "%s battery level=%s died=%t diedAt=%d transitions=%d remaining=%.12e\n", s.Name,
				br.LevelName, br.Died, int64(br.DiedAt), br.Transitions, br.RemainingJ)
		}
		if v := s.Mac.AuditFrame(); len(v) > 0 {
			fmt.Fprintf(w, "%s audit-frame %q\n", s.Name, v)
		}
		if v := s.Mac.AuditProtocol(); len(v) > 0 {
			fmt.Fprintf(w, "%s audit-protocol %q\n", s.Name, v)
		}
	}
	fmt.Fprintf(w, "bs stats %+v nodes=%v cycle=%d\n", base.BS.Stats(), base.BS.Nodes(), int64(base.BS.CycleLength()))
	if v := base.BS.AuditTable(); len(v) > 0 {
		fmt.Fprintf(w, "bs audit-table %q\n", v)
	}
	if inj != nil {
		for _, o := range inj.Finalize() {
			fmt.Fprintf(w, "fault %s rebooted=%d rejoined=%t at=%d ttr=%d sent=%d acked=%d\n", o.Fault,
				int64(o.RebootedAt), o.Rejoined, int64(o.RejoinedAt), int64(o.TimeToRejoin), o.SentDuring, o.AckedDuring)
		}
	}
	for _, r := range rec.CounterRows() {
		fmt.Fprintf(w, "counter %s %s %d\n", r.Node, r.Name, r.Value)
	}
	for _, r := range rec.HistRows() {
		fmt.Fprintf(w, "hist %+v\n", r)
	}
	// The event stream itself (instants, kinds, detail strings) is
	// pinned by digest; the counters above localise a drift.
	h := fnv.New64a()
	for _, e := range rec.Events() {
		fmt.Fprintf(h, "%d %s %s %s\n", int64(e.At), e.Node, e.Kind, e.Detail)
	}
	fmt.Fprintf(w, "events recorded=%d digest=%016x kernel=%d\n", rec.Recorded(), h.Sum64(), k.Executed())
}
