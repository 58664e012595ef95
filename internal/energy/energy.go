// Package energy implements the per-component, per-state energy accounting
// at the core of the paper's estimation model.
//
// The model is the one stated in §4.1 of the paper: E = I·Vdd·t, where t is
// the residence time of a component in each of its power states. A Meter
// tracks one component's state machine against virtual time; a Ledger
// aggregates the meters of one node and additionally attributes radio
// energy to the loss categories the paper enumerates in §4.2 (collisions,
// idle listening, overhearing, control packet overhead).
package energy

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// State indexes one power state in its meter's state table. Each
// component numbers its own states; a state's name lives only in the
// table and reaches the outside world only through reports.
type State uint8

// Draw describes the electrical operating point of one state.
type Draw struct {
	CurrentA float64 // current drawn in this state, amperes
	VoltageV float64 // supply voltage in this state, volts
}

// Power reports the state's power draw in watts.
func (d Draw) Power() float64 { return d.CurrentA * d.VoltageV }

// StateSpec is one row of a meter's state table: the state's name, as
// reports key it, and its operating point.
type StateSpec struct {
	Name string
	Draw Draw
}

// Meter tracks the power-state residency of a single component. The meter
// integrates energy lazily: it records the instant of the last transition
// and charges the elapsed interval to the outgoing state when the next
// transition (or a Flush) occurs.
type Meter struct {
	name   string
	states []StateSpec
	timeIn []sim.Time // residency per state, indexed like states
	// byName lists the states in name order, the order every float sum
	// over states runs in: float addition is not associative, so one
	// fixed order keeps totals bit-identical run to run.
	byName  []State
	state   State
	since   sim.Time
	started bool
}

// NewMeter creates a meter for a component with the given state table;
// State(i) names states[i]. Every state needs a distinct, non-empty
// name. Call Start before the first transition.
func NewMeter(name string, states []StateSpec) *Meter {
	if len(states) == 0 || len(states) > 1<<8 {
		panic(fmt.Sprintf("energy: meter %q needs 1 to 256 states, got %d", name, len(states)))
	}
	m := &Meter{
		name:   name,
		states: slices.Clone(states),
		timeIn: make([]sim.Time, len(states)),
		byName: make([]State, len(states)),
	}
	for i := range m.byName {
		m.byName[i] = State(i)
	}
	sort.Slice(m.byName, func(i, j int) bool {
		return states[m.byName[i]].Name < states[m.byName[j]].Name
	})
	for i, s := range m.byName {
		n := states[s].Name
		if n == "" || i > 0 && n == states[m.byName[i-1]].Name {
			panic(fmt.Sprintf("energy: meter %q state %d has an empty or duplicate name %q", name, s, n))
		}
	}
	return m
}

// Name reports the component name the meter was created with.
func (m *Meter) Name() string { return m.name }

// StateName reports the name the state table gives s.
func (m *Meter) StateName(s State) string {
	m.mustKnow(s)
	return m.states[s].Name
}

// Start begins metering at instant now in the given initial state.
func (m *Meter) Start(now sim.Time, initial State) {
	if m.started {
		panic(fmt.Sprintf("energy: meter %q started twice", m.name))
	}
	m.mustKnow(initial)
	m.state = initial
	m.since = now
	m.started = true
}

// Transition moves the component into next at instant now, charging the
// elapsed interval to the outgoing state. Transitioning to the current
// state is a no-op (but still legal, so callers need not special-case it).
//
//hot:path
func (m *Meter) Transition(now sim.Time, next State) {
	if !m.started {
		panic(fmt.Sprintf("energy: meter %q used before Start", m.name))
	}
	m.mustKnow(next)
	if now < m.since {
		panic(fmt.Sprintf("energy: meter %q time went backwards (%v -> %v)", m.name, m.since, now))
	}
	if next == m.state {
		return
	}
	m.timeIn[m.state] += now - m.since
	m.state = next
	m.since = now
}

// State reports the component's current power state.
func (m *Meter) State() State {
	return m.state
}

// Flush charges the interval since the last transition to the current
// state, up to instant now, without changing state. Call it once at the
// end of a run before reading totals.
func (m *Meter) Flush(now sim.Time) {
	if !m.started {
		return
	}
	if now < m.since {
		panic(fmt.Sprintf("energy: meter %q flush time went backwards", m.name))
	}
	m.timeIn[m.state] += now - m.since
	m.since = now
}

// TimeIn reports the accumulated residence time in state s (after the
// last Flush or Transition).
func (m *Meter) TimeIn(s State) sim.Time {
	m.mustKnow(s)
	return m.timeIn[s]
}

// Reset zeroes the accumulated residencies and restarts integration at
// instant now in the current state. Used after simulation warm-up so a
// measurement window covers steady state only.
func (m *Meter) Reset(now sim.Time) {
	if !m.started {
		return
	}
	if now < m.since {
		panic(fmt.Sprintf("energy: meter %q reset time went backwards", m.name))
	}
	clear(m.timeIn)
	m.since = now
}

// EnergyJ reports the total energy in joules accumulated across all
// states, E = sum_s I_s·V_s·t_s, summed in state-name order.
func (m *Meter) EnergyJ() float64 {
	var e float64
	for _, s := range m.byName {
		e += m.energyIn(s)
	}
	return e
}

// EnergyInJ reports the energy accumulated in one state.
func (m *Meter) EnergyInJ(s State) float64 {
	m.mustKnow(s)
	return m.energyIn(s)
}

func (m *Meter) energyIn(s State) float64 {
	return m.states[s].Draw.Power() * m.timeIn[s].Seconds()
}

// States reports the meter's states in name order.
func (m *Meter) States() []State { return slices.Clone(m.byName) }

// TotalTime reports the sum of residence times over all states.
func (m *Meter) TotalTime() sim.Time {
	var t sim.Time
	for _, d := range m.timeIn {
		t += d
	}
	return t
}

func (m *Meter) mustKnow(s State) {
	if int(s) >= len(m.states) {
		panic(fmt.Sprintf("energy: meter %q has no state %d", m.name, s))
	}
}

// LossCategory labels radio energy that the paper's §4.2 classifies as a
// distinct waste mechanism. Useful energy (delivering the node's own data)
// is not a loss category. Categories are small integers; their names
// appear in reports, text and JSON.
type LossCategory uint8

const (
	// LossCollision is energy spent on transmissions or receptions that
	// were corrupted by a concurrent transmission.
	LossCollision LossCategory = iota
	// LossIdleListening is energy spent with the receiver on while no
	// frame addressed to anyone was on the air.
	LossIdleListening
	// LossOverhearing is energy spent receiving frames addressed to a
	// different node (discarded by the nRF2401 address filter).
	LossOverhearing
	// LossControl is energy spent sending/receiving control frames
	// (beacons, slot requests, grants, acks) rather than data.
	LossControl

	numLossCategories = iota
)

var lossNames = [numLossCategories]string{
	LossCollision:     "collision",
	LossIdleListening: "idle-listening",
	LossOverhearing:   "overhearing",
	LossControl:       "control-overhead",
}

// AllLossCategories lists the categories in report order.
func AllLossCategories() []LossCategory {
	return []LossCategory{LossCollision, LossIdleListening, LossOverhearing, LossControl}
}

// String reports the category's name.
func (c LossCategory) String() string {
	if c < numLossCategories {
		return lossNames[c]
	}
	return fmt.Sprintf("LossCategory(%d)", uint8(c))
}

// MarshalText encodes the category as its name, so a Report's Losses
// map keys JSON by name.
func (c LossCategory) MarshalText() ([]byte, error) {
	if c >= numLossCategories {
		return nil, fmt.Errorf("energy: unknown loss category %d", uint8(c))
	}
	return []byte(lossNames[c]), nil
}

// UnmarshalText decodes a category from its name.
func (c *LossCategory) UnmarshalText(text []byte) error {
	for i, n := range lossNames {
		if n == string(text) {
			*c = LossCategory(i)
			return nil
		}
	}
	return fmt.Errorf("energy: unknown loss category %q", text)
}

// Ledger aggregates the meters of one node plus loss-category attribution.
type Ledger struct {
	meters []*Meter // registration order
	losses [numLossCategories]float64
	// attributed marks the categories charged since the last Reset; a
	// report lists only those.
	attributed [numLossCategories]bool
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Register adds a meter to the ledger. Component names must be unique.
func (l *Ledger) Register(m *Meter) {
	if l.Meter(m.Name()) != nil {
		panic(fmt.Sprintf("energy: duplicate meter %q", m.Name()))
	}
	l.meters = append(l.meters, m)
}

// Meter returns the registered meter with the given name, or nil.
func (l *Ledger) Meter(name string) *Meter {
	for _, m := range l.meters {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// AttributeLoss charges joules of already-metered energy to a loss
// category. This is attribution, not additional energy: the joules were
// integrated by a meter; the category records *why* they were spent.
//
//hot:path
func (l *Ledger) AttributeLoss(c LossCategory, joules float64) {
	if joules < 0 {
		panic("energy: negative loss attribution")
	}
	l.losses[c] += joules
	l.attributed[c] = true
}

// Loss reports the energy attributed to a category, in joules.
func (l *Ledger) Loss(c LossCategory) float64 { return l.losses[c] }

// Flush flushes every registered meter at instant now.
func (l *Ledger) Flush(now sim.Time) {
	for _, m := range l.meters {
		m.Flush(now)
	}
}

// Reset zeroes every meter and all loss attributions, restarting
// integration at instant now.
func (l *Ledger) Reset(now sim.Time) {
	for _, m := range l.meters {
		m.Reset(now)
	}
	l.losses = [numLossCategories]float64{}
	l.attributed = [numLossCategories]bool{}
}

// TotalJ reports the node's total energy across all components, summed
// in registration order so the float total is bit-identical run to run.
func (l *Ledger) TotalJ() float64 {
	var e float64
	for _, m := range l.meters {
		e += m.EnergyJ()
	}
	return e
}

// Report snapshots the ledger into a plain-data Report: the boundary
// where state indices turn into state names.
func (l *Ledger) Report() Report {
	r := Report{
		Components: make([]ComponentReport, 0, len(l.meters)),
		Losses:     make(map[LossCategory]float64),
	}
	for _, m := range l.meters {
		cr := ComponentReport{Name: m.Name(), States: make(map[string]StateReport, len(m.states))}
		for _, s := range m.byName {
			e := m.energyIn(s)
			cr.States[m.states[s].Name] = StateReport{Time: m.timeIn[s], EnergyJ: e}
			cr.EnergyJ += e
		}
		r.Components = append(r.Components, cr)
		r.TotalJ += cr.EnergyJ
	}
	for c, ok := range l.attributed {
		if ok {
			r.Losses[LossCategory(c)] = l.losses[c]
		}
	}
	return r
}

// StateReport is the per-state slice of a component report.
type StateReport struct {
	Time    sim.Time
	EnergyJ float64
}

// ComponentReport is the per-component slice of a node energy report.
type ComponentReport struct {
	Name    string
	EnergyJ float64
	States  map[string]StateReport // keyed by state name
}

// EnergyMJ reports the component total in millijoules, the unit used in
// the paper's tables.
func (c ComponentReport) EnergyMJ() float64 { return c.EnergyJ * 1e3 }

// Report is a plain-data snapshot of a node's energy accounting.
type Report struct {
	Components []ComponentReport
	TotalJ     float64
	Losses     map[LossCategory]float64
}

// Component returns the report for the named component (zero value if
// absent) and whether it was found.
func (r Report) Component(name string) (ComponentReport, bool) {
	for _, c := range r.Components {
		if c.Name == name {
			return c, true
		}
	}
	return ComponentReport{}, false
}

// TotalMJ reports the node total in millijoules.
func (r Report) TotalMJ() float64 { return r.TotalJ * 1e3 }
