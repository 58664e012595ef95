package soak

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two draws differ:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestGenerateValid feeds a wide seed range through the generator and
// requires every draw to pass core validation — the soak harness must
// never waste a run on a config the simulator rejects.
func TestGenerateValid(t *testing.T) {
	protos := map[mac.Protocol]int{}
	tuned := 0
	for seed := int64(1); seed <= 500; seed++ {
		cfg := Generate(seed)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d: generated config invalid: %v\n%+v", seed, err, cfg)
		}
		if cfg.Audit == nil {
			t.Fatalf("seed %d: generated config has audits off", seed)
		}
		protos[cfg.Protocol]++
		if cfg.MACParams != (mac.Params{}) {
			tuned++
		}
	}
	// The MAC axis must exercise every registered protocol, including
	// off-default tuning draws.
	for _, p := range mac.Protocols() {
		if protos[p] == 0 {
			t.Fatalf("500 seeds never drew protocol %q: %v", p, protos)
		}
	}
	if tuned == 0 {
		t.Fatal("500 seeds never drew off-default MAC tuning")
	}
}

// TestEvaluateCleanSeeds runs a handful of generated scenarios through
// the full oracle stack; the committed simulator must hold every law on
// both schedulers.
func TestEvaluateCleanSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation runs skipped in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		if f := Evaluate(Generate(seed)); f != nil {
			t.Fatalf("seed %d failed: %s", seed, f)
		}
	}
}

// syntheticEval reproduces a failure exactly when the config still has
// at least one fault, at least two nodes and nonzero clock drift. The
// shrinker must strip everything else and stop at that boundary.
func syntheticEval(calls *int) func(core.Config) *Failure {
	return func(c core.Config) *Failure {
		*calls++
		if len(c.Faults) > 0 && c.Nodes >= 2 && c.ClockDriftPPM > 0 {
			return &Failure{Kind: "audit", Invariant: "synthetic", Detail: "still failing"}
		}
		return nil
	}
}

func TestShrinkConverges(t *testing.T) {
	cfg := core.Config{
		Nodes:             4,
		Duration:          8 * sim.Second,
		Warmup:            sim.Second,
		ClockDriftPPM:     500,
		BER:               1e-4,
		SlotReclaimCycles: 8,
		Faults: []fault.Fault{
			{Kind: fault.KindCrash, Node: 1, At: 2 * sim.Second, RebootAfter: sim.Second},
			{Kind: fault.KindCrash, Node: 2, At: 3 * sim.Second, RebootAfter: sim.Second},
			{Kind: fault.KindInterference, At: 4 * sim.Second, Until: 5 * sim.Second},
		},
	}
	want := &Failure{Kind: "audit", Invariant: "synthetic"}

	var calls int
	got := Shrink(cfg, syntheticEval(&calls), want)

	if len(got.Faults) != 1 {
		t.Fatalf("faults not minimized: %+v", got.Faults)
	}
	if got.Nodes != 2 {
		t.Fatalf("nodes not minimized: %d", got.Nodes)
	}
	if got.ClockDriftPPM == 0 {
		t.Fatal("drift was removed even though the failure needs it")
	}
	if got.BER != 0 || got.SlotReclaimCycles != 0 {
		t.Fatalf("irrelevant axes survived: BER %g, reclaim %d", got.BER, got.SlotReclaimCycles)
	}
	if got.Duration < minDuration || got.Duration >= 2*minDuration {
		t.Fatalf("duration not halved to the floor: %v", got.Duration)
	}
	if f := syntheticEval(new(int))(got); f == nil {
		t.Fatal("shrunk config no longer reproduces the failure")
	}

	// Shrinking is deterministic: a second pass from the same inputs
	// lands on the identical config, and re-shrinking the minimum is a
	// no-op.
	again := Shrink(cfg, syntheticEval(new(int)), want)
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("shrink not deterministic:\n%+v\n%+v", got, again)
	}
	fixed := Shrink(got, syntheticEval(new(int)), want)
	if !reflect.DeepEqual(got, fixed) {
		t.Fatalf("shrink not a fixpoint:\n%+v\n%+v", got, fixed)
	}
}

// TestShrinkKeepsReferencedNodes pins the node-removal guard: a fault
// aimed at the highest node must block that pass, or shrinking would
// hand back a schedule core.Validate rejects.
func TestShrinkKeepsReferencedNodes(t *testing.T) {
	cfg := core.Config{
		Protocol: mac.ProtoDynamic,
		Nodes:    3,
		App:      core.AppRpeak,
		Duration: sim.Second,
		Warmup:   sim.Second,
		Faults: []fault.Fault{
			{Kind: fault.KindCrash, Node: 3, At: 1100 * sim.Millisecond, RebootAfter: 100 * sim.Millisecond},
		},
	}
	want := &Failure{Kind: "audit", Invariant: "synthetic"}
	eval := func(c core.Config) *Failure {
		if len(c.Faults) > 0 {
			return &Failure{Kind: "audit", Invariant: "synthetic"}
		}
		return nil
	}
	got := Shrink(cfg, eval, want)
	if got.Nodes != 3 {
		t.Fatalf("node 3 removed while its crash fault survived: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("shrunk config invalid: %v", err)
	}
}

// TestShrinkPreservesMACChoice pins the MAC contract: shrinking may
// reset tuning parameters to protocol defaults, but the protocol a
// failure was found on must survive into the reproducer.
func TestShrinkPreservesMACChoice(t *testing.T) {
	cfg := core.Config{
		Protocol:  mac.ProtoCSMA,
		MACParams: mac.Params{MinBE: 2, MaxBE: 6, MaxBackoffs: 4},
		Nodes:     3,
		App:       core.AppRpeak,
		Duration:  4 * sim.Second,
		Warmup:    sim.Second,
		BER:       1e-4,
		Faults: []fault.Fault{
			{Kind: fault.KindCrash, Node: 1, At: 1200 * sim.Millisecond},
		},
	}
	want := &Failure{Kind: "audit", Invariant: "synthetic"}
	eval := func(c core.Config) *Failure {
		if c.Protocol != mac.ProtoCSMA {
			t.Fatalf("shrinker changed the MAC protocol to %q", c.Protocol)
		}
		if len(c.Faults) > 0 {
			return &Failure{Kind: "audit", Invariant: "synthetic"}
		}
		return nil
	}
	got := Shrink(cfg, eval, want)
	if got.Protocol != mac.ProtoCSMA {
		t.Fatalf("reproducer lost the MAC protocol: %+v", got)
	}
	if got.MACParams != (mac.Params{}) {
		t.Fatalf("irrelevant MAC tuning survived: %+v", got.MACParams)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("shrunk config invalid: %v", err)
	}
}

func TestShrinkNilFailure(t *testing.T) {
	cfg := Generate(9)
	got := Shrink(cfg, func(core.Config) *Failure { t.Fatal("eval called"); return nil }, nil)
	if !reflect.DeepEqual(cfg, got) {
		t.Fatal("nil failure must leave the config untouched")
	}
}
