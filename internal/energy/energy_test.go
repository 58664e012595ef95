package energy

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// The states of twoStateMeter.
const (
	active State = iota
	lpm
)

func twoStateMeter() *Meter {
	return NewMeter("mcu", []StateSpec{
		active: {"active", Draw{CurrentA: 2e-3, VoltageV: 2.8}},
		lpm:    {"lpm", Draw{CurrentA: 0.66e-3, VoltageV: 2.8}},
	})
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDrawPower(t *testing.T) {
	d := Draw{CurrentA: 2e-3, VoltageV: 2.8}
	if !approx(d.Power(), 5.6e-3, 1e-12) {
		t.Fatalf("Power = %v, want 5.6mW", d.Power())
	}
}

func TestMeterSimpleIntegration(t *testing.T) {
	m := twoStateMeter()
	m.Start(0, lpm)
	m.Transition(10*sim.Second, active) // 10s lpm
	m.Transition(20*sim.Second, lpm)    // 10s active
	m.Flush(60 * sim.Second)            // 40s lpm

	if got := m.TimeIn(active); got != 10*sim.Second {
		t.Fatalf("TimeIn(active) = %v, want 10s", got)
	}
	if got := m.TimeIn(lpm); got != 50*sim.Second {
		t.Fatalf("TimeIn(lpm) = %v, want 50s", got)
	}
	// E = 5.6mW*10s + 1.848mW*50s = 56mJ + 92.4mJ = 148.4mJ
	if !approx(m.EnergyJ(), 0.1484, 1e-9) {
		t.Fatalf("EnergyJ = %v, want 0.1484", m.EnergyJ())
	}
	if !approx(m.EnergyInJ(active), 0.056, 1e-9) {
		t.Fatalf("EnergyInJ(active) = %v", m.EnergyInJ(active))
	}
}

func TestMeterSelfTransitionIsNoop(t *testing.T) {
	m := twoStateMeter()
	m.Start(0, lpm)
	m.Transition(5*sim.Second, lpm)
	m.Transition(5*sim.Second, lpm)
	m.Flush(10 * sim.Second)
	if got := m.TimeIn(lpm); got != 10*sim.Second {
		t.Fatalf("TimeIn(lpm) = %v, want 10s", got)
	}
}

func TestMeterPaperMicrocontrollerBaseline(t *testing.T) {
	// The paper's floor: MCU in power-save for the whole 60s window at
	// 0.66mA, 2.8V -> 110.88 mJ. This is the offset under every µC number
	// in Tables 1-4.
	m := twoStateMeter()
	m.Start(0, lpm)
	m.Flush(60 * sim.Second)
	if !approx(m.EnergyJ()*1e3, 110.88, 1e-6) {
		t.Fatalf("60s LPM = %v mJ, want 110.88", m.EnergyJ()*1e3)
	}
}

func TestMeterPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"transition before start", func() {
			twoStateMeter().Transition(0, active)
		}},
		{"unknown initial state", func() {
			twoStateMeter().Start(0, 2)
		}},
		{"unknown transition state", func() {
			m := twoStateMeter()
			m.Start(0, lpm)
			m.Transition(1, 2)
		}},
		{"time backwards", func() {
			m := twoStateMeter()
			m.Start(10, lpm)
			m.Transition(5, active)
		}},
		{"flush backwards", func() {
			m := twoStateMeter()
			m.Start(10, lpm)
			m.Flush(5)
		}},
		{"double start", func() {
			m := twoStateMeter()
			m.Start(0, lpm)
			m.Start(0, lpm)
		}},
		{"out-of-range TimeIn", func() { twoStateMeter().TimeIn(2) }},
		{"out-of-range EnergyInJ", func() { twoStateMeter().EnergyInJ(255) }},
		{"out-of-range StateName", func() { twoStateMeter().StateName(2) }},
		{"empty state table", func() { NewMeter("x", nil) }},
		{"duplicate state name", func() {
			NewMeter("x", []StateSpec{{Name: "on"}, {Name: "on"}})
		}},
		{"unnamed state", func() {
			NewMeter("x", []StateSpec{0: {Name: "on"}, 2: {Name: "off"}})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestFlushBeforeStartIsNoop(t *testing.T) {
	m := twoStateMeter()
	m.Flush(10 * sim.Second) // must not panic
	if m.EnergyJ() != 0 {
		t.Fatalf("unstarted meter accumulated energy")
	}
}

// Property: residence times always sum to the full metered window, no
// matter the transition pattern (time conservation).
func TestQuickTimeConservation(t *testing.T) {
	f := func(steps []uint16, states []bool) bool {
		m := twoStateMeter()
		m.Start(0, lpm)
		now := sim.Time(0)
		for i, d := range steps {
			now += sim.Time(d) * sim.Microsecond
			s := lpm
			if i < len(states) && states[i] {
				s = active
			}
			m.Transition(now, s)
		}
		now += sim.Millisecond
		m.Flush(now)
		return m.TotalTime() == now
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is monotone non-decreasing in time and never negative.
func TestQuickEnergyMonotone(t *testing.T) {
	f := func(steps []uint16) bool {
		m := twoStateMeter()
		m.Start(0, active)
		now := sim.Time(0)
		prev := 0.0
		for i, d := range steps {
			now += sim.Time(d) * sim.Microsecond
			if i%2 == 0 {
				m.Transition(now, lpm)
			} else {
				m.Transition(now, active)
			}
			m.Flush(now)
			e := m.EnergyJ()
			if e < prev-1e-15 || e < 0 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerAggregation(t *testing.T) {
	l := NewLedger()
	mcu := twoStateMeter()
	const rx, tx, off State = 0, 1, 2
	radio := NewMeter("radio", []StateSpec{
		rx:  {"rx", Draw{CurrentA: 24.82e-3, VoltageV: 2.8}},
		tx:  {"tx", Draw{CurrentA: 17.54e-3, VoltageV: 2.8}},
		off: {Name: "off"},
	})
	l.Register(mcu)
	l.Register(radio)

	mcu.Start(0, active)
	radio.Start(0, off)
	radio.Transition(1*sim.Second, rx)
	radio.Transition(2*sim.Second, off)
	l.Flush(10 * sim.Second)

	wantMCU := 5.6e-3 * 10
	wantRadio := 24.82e-3 * 2.8 * 1
	if !approx(l.TotalJ(), wantMCU+wantRadio, 1e-9) {
		t.Fatalf("TotalJ = %v, want %v", l.TotalJ(), wantMCU+wantRadio)
	}

	r := l.Report()
	if len(r.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(r.Components))
	}
	if r.Components[0].Name != "mcu" || r.Components[1].Name != "radio" {
		t.Fatalf("report order not registration order: %v, %v",
			r.Components[0].Name, r.Components[1].Name)
	}
	cr, ok := r.Component("radio")
	if !ok {
		t.Fatalf("radio missing from report")
	}
	if !approx(cr.EnergyJ, wantRadio, 1e-9) {
		t.Fatalf("radio energy = %v, want %v", cr.EnergyJ, wantRadio)
	}
	if !approx(r.TotalMJ(), (wantMCU+wantRadio)*1e3, 1e-6) {
		t.Fatalf("TotalMJ = %v", r.TotalMJ())
	}
	if _, ok := r.Component("nope"); ok {
		t.Fatalf("unknown component reported present")
	}
}

func TestLedgerDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration did not panic")
		}
	}()
	l := NewLedger()
	l.Register(twoStateMeter())
	l.Register(twoStateMeter())
}

func TestLedgerLossAttribution(t *testing.T) {
	l := NewLedger()
	l.AttributeLoss(LossCollision, 0.5e-3)
	l.AttributeLoss(LossCollision, 0.25e-3)
	l.AttributeLoss(LossOverhearing, 1e-3)
	if !approx(l.Loss(LossCollision), 0.75e-3, 1e-12) {
		t.Fatalf("collision loss = %v", l.Loss(LossCollision))
	}
	if l.Loss(LossIdleListening) != 0 {
		t.Fatalf("unattributed category nonzero")
	}
	r := l.Report()
	if !approx(r.Losses[LossOverhearing], 1e-3, 1e-12) {
		t.Fatalf("report losses = %v", r.Losses)
	}
}

func TestLedgerNegativeLossPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative loss did not panic")
		}
	}()
	NewLedger().AttributeLoss(LossControl, -1)
}

func TestAllLossCategories(t *testing.T) {
	cats := AllLossCategories()
	if len(cats) != 4 {
		t.Fatalf("want the paper's 4 loss categories, got %d", len(cats))
	}
	seen := map[LossCategory]bool{}
	for _, c := range cats {
		if seen[c] {
			t.Fatalf("duplicate category %q", c)
		}
		seen[c] = true
	}
}

func TestMeterStatesSorted(t *testing.T) {
	m := NewMeter("r", []StateSpec{{Name: "tx"}, {Name: "off"}, {Name: "rx"}})
	var names []string
	for _, s := range m.States() {
		names = append(names, m.StateName(s))
	}
	if want := []string{"off", "rx", "tx"}; !slices.Equal(names, want) {
		t.Fatalf("States() names %v, want %v", names, want)
	}
}

func TestLedgerMeterLookup(t *testing.T) {
	l := NewLedger()
	m := twoStateMeter()
	l.Register(m)
	if l.Meter("mcu") != m {
		t.Fatalf("Meter lookup failed")
	}
	if l.Meter("ghost") != nil {
		t.Fatalf("unknown meter lookup should return nil")
	}
}

func TestReportEnergyMJ(t *testing.T) {
	cr := ComponentReport{EnergyJ: 0.5406}
	if !approx(cr.EnergyMJ(), 540.6, 1e-9) {
		t.Fatalf("EnergyMJ = %v, want 540.6", cr.EnergyMJ())
	}
}

// The states of unequalMeter, in table order; their names sort
// differently (off, rx, standby, tx).
const (
	uTX State = iota
	uOff
	uRX
	uStandby
)

// unequalMeter is a radio-like meter with unequal draws whose residency
// sums to different bits in table order than in name order.
func unequalMeter() *Meter {
	m := NewMeter("radio", []StateSpec{
		uTX:      {"tx", Draw{CurrentA: 17.54e-3, VoltageV: 2.8}},
		uOff:     {Name: "off"},
		uRX:      {"rx", Draw{CurrentA: 24.82e-3, VoltageV: 2.8}},
		uStandby: {"standby", Draw{CurrentA: 12e-6, VoltageV: 2.8}},
	})
	m.Start(0, uTX)
	m.Transition(966*sim.Millisecond, uOff)
	m.Transition(1222*sim.Millisecond, uRX)
	m.Transition(1887*sim.Millisecond, uStandby)
	m.Flush(1941 * sim.Millisecond)
	return m
}

// TestEnergySumsInNameOrder pins the summation order of every float
// total over states: state-name order, whatever the table order.
func TestEnergySumsInNameOrder(t *testing.T) {
	m := unequalMeter()
	sum := func(order ...State) float64 {
		var e float64
		for _, s := range order {
			e += m.EnergyInJ(s)
		}
		return e
	}
	want := sum(uOff, uRX, uStandby, uTX)
	if tableOrder := sum(uTX, uOff, uRX, uStandby); math.Float64bits(tableOrder) == math.Float64bits(want) {
		t.Fatalf("fixture too weak: table and name order both sum to %x", math.Float64bits(want))
	}
	if got := m.EnergyJ(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("EnergyJ = %x, name-order sum %x", math.Float64bits(got), math.Float64bits(want))
	}
	l := NewLedger()
	l.Register(m)
	r := l.Report()
	if got := r.Components[0].EnergyJ; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("report component EnergyJ = %x, name-order sum %x", math.Float64bits(got), math.Float64bits(want))
	}
	if math.Float64bits(r.TotalJ) != math.Float64bits(want) || math.Float64bits(l.TotalJ()) != math.Float64bits(want) {
		t.Fatalf("totals %x/%x, name-order sum %x",
			math.Float64bits(r.TotalJ), math.Float64bits(l.TotalJ()), math.Float64bits(want))
	}
	for _, s := range []State{uTX, uOff, uRX, uStandby} {
		sr := r.Components[0].States[m.StateName(s)]
		if sr.Time != m.TimeIn(s) || math.Float64bits(sr.EnergyJ) != math.Float64bits(m.EnergyInJ(s)) {
			t.Fatalf("report state %s = %+v, meter %v/%v", m.StateName(s), sr, m.TimeIn(s), m.EnergyInJ(s))
		}
	}
}

// TestReportJSON pins the encoded form of a Report: states keyed by
// name, loss categories by name and present only once attributed. The
// benchmark digest hashes these bytes, and journaled results decode
// them back.
func TestReportJSON(t *testing.T) {
	l := NewLedger()
	m := twoStateMeter()
	l.Register(m)
	m.Start(0, lpm)
	m.Transition(sim.Second, active)
	l.Flush(2 * sim.Second)
	l.AttributeLoss(LossControl, 0.5)
	l.AttributeLoss(LossCollision, 0)
	r := l.Report()
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Components":[{"Name":"mcu","EnergyJ":0.007448,"States":{"active":{"Time":"1s","EnergyJ":0.0056},"lpm":{"Time":"1s","EnergyJ":0.0018479999999999998}}}],"TotalJ":0.007448,"Losses":{"collision":0,"control-overhead":0.5}}`
	if string(got) != want {
		t.Fatalf("report JSON\n got %s\nwant %s", got, want)
	}
	var back Report
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.Losses[LossControl] != 0.5 || len(back.Losses) != 2 || back.TotalJ != r.TotalJ {
		t.Fatalf("decoded report %+v, want %+v", back, r)
	}
	if err := json.Unmarshal([]byte(`{"Losses":{"bogus":1}}`), &back); err == nil {
		t.Fatal("unknown loss category decoded")
	}
	l.Reset(2 * sim.Second)
	if r := l.Report(); r.Losses == nil || len(r.Losses) != 0 {
		t.Fatalf("losses after Reset = %v, want an empty map", r.Losses)
	}
}

func TestLossCategoryNames(t *testing.T) {
	want := []string{"collision", "idle-listening", "overhearing", "control-overhead"}
	for i, c := range AllLossCategories() {
		if c.String() != want[i] {
			t.Fatalf("category %d = %q, want %q", i, c, want[i])
		}
	}
	if s := LossCategory(9).String(); s != "LossCategory(9)" {
		t.Fatalf("unknown category prints %q", s)
	}
	if _, err := json.Marshal(map[LossCategory]float64{9: 1}); err == nil {
		t.Fatal("unknown category encoded")
	}
}
